"""Independent checks for the benchmark's jobs.

Nothing here imports the program under test: every expected value is
derived from the mathematics with small self-contained helpers, so a
job counts as correct only when the program's report agrees with an
answer reached another way.

Binary forms are coefficient lists ``[c0, ..., cd]`` meaning
``sum ci * s^(d-i) * t^i``; univariate polynomials are coefficient
lists in increasing degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, prod
from typing import Dict, List, Sequence, Tuple

# -- dense univariate arithmetic over Q -----------------------------------------


def _trim(f: List[Fraction]) -> List[Fraction]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def uni_rem(f: Sequence[Fraction], g: Sequence[Fraction]) -> List[Fraction]:
    f, g = _trim(f), _trim(g)
    while len(f) >= len(g):
        q = f[-1] / g[-1]
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[i + shift] -= q * c
        f = _trim(f)
    return f


def uni_gcd_degree(f: Sequence[Fraction], g: Sequence[Fraction]) -> int:
    f, g = _trim(f), _trim(g)
    while g:
        f, g = g, uni_rem(f, g)
    return len(f) - 1


def distinct_roots(f: Sequence[Fraction]) -> int:
    """Number of distinct complex roots of a nonzero polynomial."""
    f = _trim(f)
    deriv = [i * c for i, c in enumerate(f)][1:]
    if not _trim(deriv):
        return 0
    return len(f) - 1 - uni_gcd_degree(f, deriv)


def det(M: List[List[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    M = [list(map(Fraction, row)) for row in M]
    n, sign, out = len(M), 1, Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if M[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            M[c], M[p] = M[p], M[c]
            sign = -sign
        out *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            if f:
                M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return sign * out


def binary_resultant(f: Sequence[Fraction], g: Sequence[Fraction]) -> Fraction:
    """Sylvester resultant of two binary forms; zero iff a common
    projective root (leading zeros count as a root at s = 0)."""
    m, n = len(f) - 1, len(g) - 1
    rows = [[Fraction(0)] * i + list(f) + [Fraction(0)] * (n - 1 - i) for i in range(n)]
    rows += [[Fraction(0)] * i + list(g) + [Fraction(0)] * (m - 1 - i) for i in range(m)]
    return det(rows)


# -- plane curves ------------------------------------------------------------------

Poly3 = Dict[Tuple[int, int, int], Fraction]   # homogeneous form in (x, y, z)


def evaluate(p: Poly3, pt: Sequence[Fraction]) -> Fraction:
    return sum((c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2]
                for e, c in p.items()), Fraction(0))


def gradient(p: Poly3, pt: Sequence[Fraction]) -> List[Fraction]:
    out = []
    for i in range(3):
        d: Poly3 = {}
        for e, c in p.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                d[tuple(e2)] = d.get(tuple(e2), 0) + c * e[i]
        out.append(evaluate(d, pt))
    return out


def _binary_mul(f: List[Fraction], g: List[Fraction]) -> List[Fraction]:
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def restrict_to_line(p: Poly3, P: Sequence[Fraction], Q: Sequence[Fraction],
                     degree: int) -> List[Fraction]:
    """The binary form p(s*P + t*Q) of the given degree."""
    lines = [[Fraction(P[i]), Fraction(Q[i])] for i in range(3)]
    out = [Fraction(0)] * (degree + 1)
    for e, c in p.items():
        f = [Fraction(c)]
        for i in range(3):
            for _ in range(e[i]):
                f = _binary_mul(f, lines[i])
        for i, v in enumerate(f):
            out[i] += v
    return out


def line_points(l: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Two distinct integer points spanning the line l0 x + l1 y + l2 z = 0."""
    a, b, c = l
    cands = [(b, -a, 0), (c, 0, -a), (0, c, -b)]
    pts = [v for v in cands if any(v)]
    P = pts[0]
    Q = next(v for v in pts[1:]
             if any(P[i] * v[j] - P[j] * v[i] for i in range(3) for j in range(3)))
    return P, Q


# -- Hilbert series ------------------------------------------------------------------


def hilbert_series(weights: Sequence[int], relations: Sequence[int],
                   upto: int) -> List[int]:
    """Coefficients of prod(1 - t^d) / prod(1 - t^w), by counting monomials."""
    counts = [0] * (upto + 1)

    def walk(i: int, deg: int):
        if i == len(weights):
            counts[deg] += 1
            return
        for d in range(deg, upto + 1, weights[i]):
            walk(i + 1, d)

    walk(0, 0)
    for d in relations:
        counts = [counts[m] - (counts[m - d] if m >= d else 0) for m in range(upto + 1)]
    return counts


# -- the three-nodal quartic ---------------------------------------------------------

QUARTIC_MONOMIALS = ((2, 2, 0), (2, 1, 1), (1, 2, 1), (2, 0, 2), (1, 1, 2), (0, 2, 2))


def closed_form_coefficients(a: Fraction, b: Fraction) -> List[Fraction]:
    """The six coefficients of the quartic f_{a,b}, in QUARTIC_MONOMIALS order."""
    return [
        -a * b ** 3 + b ** 4 + a * a * b - a * b * b,
        a * a * b ** 3 - a ** 3 * b - a * b ** 3 - a ** 3 + 3 * a * a * b - a * b * b,
        a * b * b - 2 * b ** 3 - a * a + a * b + b * b,
        a ** 4 - a ** 3 * b - a ** 3 + a * a * b,
        2 * a * a * b - a * b * b - a * a - a * b + b * b,
        b * b - b,
    ]


def proportional(u: Sequence[Fraction], v: Sequence[Fraction]) -> bool:
    """u = c * v for a nonzero scalar c (both vectors nonzero)."""
    if not any(u) or not any(v):
        return False
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(len(u)))


def is_conic_square(c: Sequence[Fraction]) -> bool:
    """Is sum c_i m_i (QUARTIC_MONOMIALS order) the square of a conic
    alpha*xy + beta*xz + gamma*yz?"""
    x2y2, x2yz, xy2z, x2z2, xyz2, y2z2 = c
    return (x2yz ** 2 == 4 * x2y2 * x2z2 and xy2z ** 2 == 4 * x2y2 * y2z2
            and xyz2 ** 2 == 4 * x2z2 * y2z2 and x2yz * xy2z * xyz2 == 8 * x2y2 * x2z2 * y2z2)


def parametrization_point(a: Fraction, b: Fraction, u: Fraction, v: Fraction):
    """The image (x : y : z) of (u : v) under the quartic parametrisation."""
    x = u * v * (u - v) * (u - v * b)
    y = u * (u - v) * (u - v * a) * (u * b - v * a)
    z = v * (u - v * a) * (u - v * b) * (u * b - v * a)
    return x, y, z


# -- gluing combinatorics --------------------------------------------------------


def _double_factorial_odd(n: int) -> int:
    """(n-1)!! for even n: the number of fixed-point-free involutions of n marks."""
    if n % 2:
        return 0
    return prod(range(n - 1, 0, -2))


def rho_choices(genus: int) -> int:
    """Fixed-point counts 2g + 2 - 4h >= 0 an involution of a genus-g curve can have."""
    return sum(1 for h in range(genus + 1) if 2 * genus + 2 - 4 * h >= 0)


def candidate_count(sizes: Sequence[int], genera: Sequence[int]) -> int:
    """Closed-form number of gluing involutions the enumerator builds.

    Sum over involutive component permutations that preserve (genus,
    mark count): k! per swapped pair of k-mark components, times
    (n-1)!! per invariant n-mark component, times the fixed-point
    choices of every invariant component.
    """
    sig = list(zip(genera, sizes))
    total = 0
    for perm in permutations(range(len(sig))):
        if any(perm[perm[i]] != i or sig[perm[i]] != sig[i] for i in range(len(sig))):
            continue
        term = 1
        for i, j in enumerate(perm):
            if i < j:
                term *= factorial(sizes[i])
            elif i == j:
                term *= _double_factorial_odd(sizes[i]) * rho_choices(genera[i])
        total += term
    return total


def check_gluing_orbit(config: dict, orbit: dict) -> bool:
    """Recompute an orbit's balance mu_bar = rho/2 + 2*mu1 from its
    representative involution and compare with the reported chi block.

    The involution must be a fixed-point-free involution of the marks,
    compatible with its component map, with admissible fixed-point
    counts on exactly the invariant components; mu1 is the number of
    node classes under gluing plus the involution (by union-find).
    """
    inv = orbit["involution"]
    comps = config["components"]
    cmap = inv["component_map"]
    mmap = inv["mark_map"]
    comp_of = {m: i for i, c in enumerate(comps) for m in c["marks"]}
    if set(mmap) != set(comp_of):
        return False
    for m, im in mmap.items():
        if im == m or mmap.get(im) != m or comp_of[im] != cmap[comp_of[m]]:
            return False
    fixed = {int(k): v for k, v in inv["fixed_point_counts"].items()}
    if set(fixed) != {i for i, j in enumerate(cmap) if i == j}:
        return False
    for i, rho_i in fixed.items():
        g = comps[i]["genus"]
        if not 0 <= rho_i <= 2 * g + 2 or (2 * g + 2 - rho_i) % 4:
            return False
    parent = {m: m for m in comp_of}

    def find(m):
        while parent[m] != m:
            parent[m] = parent[parent[m]]
            m = parent[m]
        return m

    for a, b in config["matching"]:
        parent[find(a)] = find(b)
    for m, im in mmap.items():
        parent[find(m)] = find(im)
    mu1 = len({find(a) for a, _ in config["matching"]})
    mu_bar = len(config["matching"])
    rho = sum(fixed.values())
    chi = orbit["chi"]
    return (2 * mu_bar == rho + 4 * mu1 and chi["holds"] is True
            and (chi["mu_bar"], chi["rho"], chi["mu1"]) == (mu_bar, rho, mu1))
