"""Gluing combinatorics for non-normal surfaces.

A nodal curve is presented by its normalisation: components with a
geometric genus and marked points (the node preimages), plus a perfect
matching pairing the two preimages of each node.  A gluing involution
acts on components and marks without fixing any mark; its geometric
fixed points away from the marks are counted per invariant component.
The module computes degenerate-cusp classes by walking the alternating
cycles of the matching and the involution, checks the
Euler-characteristic condition, enumerates all admissible involutions
up to a declared symmetry group, and carries the decision table for
nodal plane quartics.

Combinatorial admissibility is kept separate from geometric
realisability: involutions that would descend to a fixed-point-free
involution of the plane curve itself (an etale double cover, which
cannot exist for a canonically embedded quartic) are enumerated but
flagged as excluded rather than silently dropped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product
from math import comb, factorial, prod
from typing import (Callable, Dict, FrozenSet, Hashable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

from . import Budget, json_int, json_list


class GluingError(ValueError):
    pass


EXCLUDED_ETALE = "excluded-etale-descent"
ADMISSIBLE = "admissible"


@dataclass(frozen=True)
class MarkedConfig:
    """Components (genus, marks) with a perfect matching on all marks."""

    components: Tuple[Tuple[int, Tuple[str, ...]], ...]
    matching: Tuple[Tuple[str, str], ...]
    node_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        comps = tuple((g, tuple(marks)) for g, marks in self.components)
        object.__setattr__(self, "components", comps)
        if any(type(g) is not int for g, _ in comps):
            raise GluingError("genus must be an integer")
        if any(g < 0 for g, _ in comps):
            raise GluingError("genus must be non-negative")
        match = tuple((a, b) for a, b in self.matching)
        object.__setattr__(self, "matching", match)
        all_marks = [m for _, marks in comps for m in marks]
        if len(set(all_marks)) != len(all_marks):
            raise GluingError("marks must be globally distinct")
        used = [m for pair in match for m in pair]
        if sorted(used) != sorted(all_marks) or len(set(used)) != len(used):
            raise GluingError("matching must pair every mark exactly once")
        if any(a == b for a, b in match):
            raise GluingError("a node needs two distinct preimages")
        if self.node_names is not None and len(self.node_names) != len(match):
            raise GluingError("node_names must parallel the matching")

    @property
    def mu_bar(self) -> int:
        return len(self.matching)

    def chi_bar(self) -> int:
        return sum(1 - g for g, _ in self.components) - self.mu_bar

    @cached_property
    def component_of(self) -> Dict[str, int]:
        """Every mark's component index; its keys are the mark set."""
        return {m: i for i, (_, marks) in enumerate(self.components) for m in marks}

    @cached_property
    def _rho_options(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(rho_options(g) for g, _ in self.components)

    @cached_property
    def _nodes(self) -> Dict[str, Tuple[str, str]]:
        """Every mark's (mate, name of the node the two form)."""
        names = self.node_names or tuple("~".join(sorted(p)) for p in self.matching)
        nodes = {}
        for name, (a, b) in zip(names, self.matching):
            nodes[a], nodes[b] = (b, name), (a, name)
        return nodes

    def node_name(self, pair: FrozenSet[str]) -> str:
        if len(pair) == 2:
            a, b = pair
            mate, name = self._nodes.get(a, (a, None))
            if mate == b:
                return name
        raise GluingError("not a matching pair")

    def to_json(self) -> dict:
        doc = {
            "components": [{"genus": g, "marks": list(marks)}
                           for g, marks in self.components],
            "matching": [list(p) for p in self.matching],
        }
        if self.node_names is not None:
            doc["node_names"] = list(self.node_names)
        return doc

    @staticmethod
    def from_json(doc: dict) -> "MarkedConfig":
        """Raises TypeError for a value of the wrong JSON type."""
        return MarkedConfig(
            tuple((json_int(c["genus"], "genus"), json_list(c["marks"], "marks", str))
                  for c in doc["components"]),
            tuple(json_list(p, "a matching entry", str, 2) for p in doc["matching"]),
            json_list(doc["node_names"], "node_names", str) if "node_names" in doc else None,
        )


def rho_options(genus: int) -> range:
    """Possible fixed-point counts of an involution on a genus-g curve.

    Riemann-Hurwitz: rho = 2g + 2 - 4h >= 0 for the quotient genus h, so a
    self-mapped rational component always has exactly two fixed points
    and a genus-1 component has none or four.  An O(1) range, largest first.
    """
    return range(2 * genus + 2, -1, -4)


class GluingInvolution(NamedTuple):
    """component_map and mark_map are involutions; no mark is fixed.

    fixed_point_counts assigns, to every tau-invariant component, the
    number of geometric fixed points on it (away from the marks).  The
    fields are canonical, so an involution is its own orbit key.
    """

    component_map: Tuple[int, ...]
    mark_map: Tuple[Tuple[str, str], ...]
    fixed_point_counts: Tuple[Tuple[int, int], ...]

    def mark_dict(self) -> Dict[str, str]:
        return dict(self.mark_map)

    def rho(self) -> int:
        return sum(c for _, c in self.fixed_point_counts)

    def to_json(self) -> dict:
        return {
            "component_map": list(self.component_map),
            "mark_map": {a: b for a, b in self.mark_map},
            "fixed_point_counts": {str(i): c for i, c in self.fixed_point_counts},
        }


def make_involution(config: MarkedConfig, component_map: Sequence[int],
                    mark_map: Dict[str, str],
                    fixed_point_counts: Dict[int, int]) -> GluingInvolution:
    """Validate and freeze an involution for the given configuration."""
    n = len(config.components)
    cm = tuple(component_map)
    if sorted(cm) != list(range(n)) or any(cm[cm[i]] != i for i in range(n)):
        raise GluingError("component_map is not an involutive permutation")
    comp_of = config.component_of
    if mark_map.keys() != comp_of.keys():
        raise GluingError("mark_map must be defined on every mark")
    for m, im in mark_map.items():
        if mark_map.get(im) != m:
            raise GluingError("mark_map is not an involution")
        if im == m:
            raise GluingError("mark_map must not fix a mark")
        if comp_of[im] != cm[comp_of[m]]:
            raise GluingError("mark_map incompatible with component_map")
    invariant = {i for i in range(n) if cm[i] == i}
    if fixed_point_counts.keys() != invariant:
        raise GluingError("fixed_point_counts must cover exactly the invariant components")
    for i, c in fixed_point_counts.items():
        if c not in config._rho_options[i]:
            raise GluingError(
                f"component {i} of genus {config.components[i][0]} cannot have "
                f"{c} fixed points")
    return GluingInvolution(
        cm,
        tuple(sorted(mark_map.items())),
        tuple(sorted(fixed_point_counts.items())),
    )


# -- cusp classes --------------------------------------------------------------


@dataclass(frozen=True)
class CuspPartition:
    """Partition of the nodes into degenerate-cusp classes."""

    classes: Tuple[Tuple[str, ...], ...]

    @property
    def mu1(self) -> int:
        return len(self.classes)

    def sizes(self) -> Tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.classes), reverse=True))

    def to_json(self) -> list:
        return [list(c) for c in self.classes]


def cusp_classes(config: MarkedConfig, inv: GluingInvolution) -> CuspPartition:
    """Equivalence classes of nodes under gluing and the involution.

    Marks are identified when they lie over the same node or are
    exchanged by the involution.  Both relations are fixed-point-free
    involutions of the marks, so each class is one cycle alternating
    between them; walking it from any mark lists the nodes it crosses.
    """
    nodes = config._nodes
    md = inv.mark_dict()
    seen = set()
    classes = []
    for start, _ in config.matching:
        if start in seen:
            continue
        names = []
        m = start
        while m not in seen:
            mate, name = nodes[m]
            seen.update((m, mate))
            names.append(name)
            m = md[mate]
        classes.append(tuple(sorted(names)))
    return CuspPartition(tuple(sorted(classes)))


def chi_check(config: MarkedConfig, inv: GluingInvolution) -> dict:
    """chi(D) = (chi(Dbar) - mu_bar)/2 + rho/4 + mu1 and the gluing
    balance mu_bar = rho/2 + 2*mu1 (equivalent to chi(D) = -1 for a
    quartic).  Returns all the ingredients."""
    partition = cusp_classes(config, inv)
    mu_bar = config.mu_bar
    rho = inv.rho()
    mu1 = partition.mu1
    chi_bar = config.chi_bar()
    chi_D = Fraction(2 * (chi_bar - mu_bar) + rho + 4 * mu1, 4)
    holds = 2 * mu_bar == rho + 4 * mu1
    return {
        "mu_bar": mu_bar, "rho": rho, "mu1": mu1,
        "chi_bar": chi_bar, "chi_D": chi_D, "holds": holds,
        "partition": partition,
    }


def etale_descent_excluded(config: MarkedConfig, inv: GluingInvolution) -> bool:
    """Would the involution descend to a fixed-point-free involution of
    the nodal curve itself?  For a plane quartic such a descent is
    impossible (the quotient would force the canonical image into a
    conic), so these candidates are geometric dead ends."""
    if inv.rho() != 0:
        return False
    md = inv.mark_dict()
    for a, b in config.matching:
        if config._nodes[md[a]][0] != md[b]:
            return False  # does not descend at all
        if md[a] in (a, b):
            return False  # descends, but fixes this node
    return True


# -- enumeration ---------------------------------------------------------------


class ConfigSymmetry(NamedTuple):
    """A relabelling of the configuration: component permutation plus a
    compatible mark bijection preserving the matching."""

    component_perm: Tuple[int, ...]
    mark_perm: Tuple[Tuple[str, str], ...]

    def mark_dict(self) -> Dict[str, str]:
        return dict(self.mark_perm)


def _check_symmetry(config: MarkedConfig, g: ConfigSymmetry):
    n = len(config.components)
    cp = g.component_perm
    if sorted(cp) != list(range(n)):
        raise GluingError("component_perm is not a permutation")
    md = g.mark_dict()
    comp_of = config.component_of
    if set(md) != set(comp_of) or set(md.values()) != set(comp_of):
        raise GluingError("mark_perm is not a bijection on the marks")
    for m, im in md.items():
        if comp_of[im] != cp[comp_of[m]]:
            raise GluingError("mark_perm incompatible with component_perm")
        if config.components[comp_of[m]][0] != config.components[comp_of[im]][0]:
            raise GluingError("symmetry must preserve genus")
    if any(config._nodes[md[a]][0] != md[b] for a, b in config.matching):
        raise GluingError("symmetry must preserve the matching")


def _compose(g: ConfigSymmetry, h: ConfigSymmetry) -> ConfigSymmetry:
    """g after h."""
    hb = h.mark_dict()
    gb = g.mark_dict()
    return ConfigSymmetry(
        tuple(g.component_perm[h.component_perm[i]]
              for i in range(len(g.component_perm))),
        tuple(sorted((m, gb[hb[m]]) for m in hb)),
    )


def _relabel(config: MarkedConfig, component_perm: Sequence[int],
             *cycles: Sequence[str]) -> ConfigSymmetry:
    """The symmetry moving each cycle's marks one step along it and
    fixing every mark no cycle lists."""
    md = {m: m for m in config.component_of}
    for cycle in cycles:
        md.update(zip(cycle, cycle[1:] + cycle[:1]))
    return ConfigSymmetry(tuple(component_perm), tuple(sorted(md.items())))


def _close_group(config: MarkedConfig,
                 generators: Sequence[ConfigSymmetry]) -> List[ConfigSymmetry]:
    identity = _relabel(config, range(len(config.components)))
    for g in generators:
        _check_symmetry(config, g)
    group = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                gh = _compose(h, g)
                if gh not in group:
                    group.add(gh)
                    nxt.append(gh)
        frontier = nxt
    return sorted(group)


def _conjugate(inv: GluingInvolution, g: ConfigSymmetry) -> GluingInvolution:
    """g o tau o g^{-1}, which sends g(x) to g(tau(x))."""
    gcp, gmd = g.component_perm, g.mark_dict()
    cm = [0] * len(gcp)
    for i, j in enumerate(inv.component_map):
        cm[gcp[i]] = gcp[j]
    md = {gmd[m]: gmd[im] for m, im in inv.mark_map}
    fp = {gcp[i]: c for i, c in inv.fixed_point_counts}
    return GluingInvolution(tuple(cm), tuple(sorted(md.items())),
                            tuple(sorted(fp.items())))


def _involutions(items: Sequence[Hashable], may_fix: bool,
                 may_pair: Callable[[Hashable, Hashable], bool]) -> Iterator[dict]:
    """Every involution of `items` as a dict, fixing points only when
    `may_fix` and exchanging only pairs that `may_pair` accepts."""
    if not items:
        yield {}
        return
    first, rest = items[0], items[1:]
    if may_fix:
        for sub in _involutions(rest, may_fix, may_pair):
            yield {first: first, **sub}
    for k, partner in enumerate(rest):
        if may_pair(first, partner):
            for sub in _involutions(rest[:k] + rest[k + 1:], may_fix, may_pair):
                yield {first: partner, partner: first, **sub}


@dataclass(frozen=True)
class GluingOrbit:
    representative: GluingInvolution
    cusp_partition: CuspPartition
    chi: dict
    feasibility: str
    orbit_size: int

    def to_json(self) -> dict:
        chi = dict(self.chi)
        chi["chi_D"] = str(chi["chi_D"])
        chi["partition"] = self.cusp_partition.to_json()
        return {
            "involution": self.representative.to_json(),
            "cusp_partition": self.cusp_partition.to_json(),
            "cusp_sizes": list(self.cusp_partition.sizes()),
            "chi": chi,
            "feasibility": self.feasibility,
            "orbit_size": self.orbit_size,
        }


def _candidates(config: MarkedConfig) -> Iterator[GluingInvolution]:
    """Every gluing involution of the configuration, built lazily."""
    comps = config.components
    shape = [(g, len(marks)) for g, marks in comps]
    for cmap in _involutions(list(range(len(comps))), True,
                             lambda i, j: shape[i] == shape[j]):
        cm = tuple(cmap[i] for i in range(len(comps)))
        invariant = [i for i in range(len(cm)) if cm[i] == i]
        swapped = [(i, cm[i]) for i in range(len(cm)) if i < cm[i]]
        # mark maps on swapped pairs: any bijection; on invariant
        # components: any fixed-point-free involution of the marks
        pair_choices = [[{**dict(zip(comps[i][1], perm)), **dict(zip(perm, comps[i][1]))}
                         for perm in permutations(comps[j][1])]
                        for i, j in swapped]
        fixed_choices = [list(_involutions(sorted(comps[i][1]), False, lambda a, b: True))
                         for i in invariant]
        rho_choices = [config._rho_options[i] for i in invariant]
        for maps in product(*pair_choices, *fixed_choices):
            mark_map = {a: b for m in maps for a, b in m.items()}
            for counts in product(*rho_choices):
                yield make_involution(config, cm, mark_map, dict(zip(invariant, counts)))


def _candidate_count(config: MarkedConfig) -> int:
    """The number of candidates `_candidates` yields, in closed form.

    Components of one (genus, mark count) class are either swapped in
    pairs or invariant.  A swapped pair of k-mark components has k!
    mark bijections; an invariant n-mark component of genus g has (n-1)!!
    perfect matchings of its marks (none for odd n) times its
    (g+1)//2 + 1 choices of rho, counted without `len`, which overflows
    on a range longer than sys.maxsize.
    A class of c components has C(c, 2p) (2p-1)!! ways to choose p
    swapped pairs.
    """
    total = 1
    for (genus, n), c in Counter((g, len(marks)) for g, marks in config.components).items():
        swap = factorial(n)
        fix = 0 if n % 2 else prod(range(n - 1, 0, -2)) * ((genus + 1) // 2 + 1)
        total *= sum(comb(c, 2 * p) * prod(range(2 * p - 1, 0, -2)) * swap ** p
                     * fix ** (c - 2 * p) for p in range(c // 2 + 1))
    return total


def enumerate_gluings(config: MarkedConfig,
                      symmetry: Sequence[ConfigSymmetry] = ()) -> List[GluingOrbit]:
    """All gluing involutions passing the Gorenstein and chi conditions,
    one representative per symmetry orbit, each annotated with its cusp
    partition and geometric feasibility, sorted by representative.

    A candidate with rho fixed points passes exactly when
    4*mu1 == slack, where slack = 2*mu_bar - rho.  So a candidate whose
    slack is negative or not a multiple of 4 is rejected from rho alone,
    without walking any cusp cycle.  `_candidates` yields the rho-tuples
    of one mark map one after another, and mu1 depends only on the mark
    map, so its cusp cycles are walked once for all of them.  The group
    maps passing candidates to passing candidates, so only the first
    passing member of an orbit is conjugated; later ones are skipped by a
    lookup.  The orbit's least member represents it and alone gets the
    full `chi_check` report.

    Spends one step per candidate (`_candidate_count`), pruned or not,
    since each is still built and validated, under the stage
    "gluing.enumerate" before building any, so an over-budget config is
    refused without work.
    """
    Budget("gluing.enumerate").spend(_candidate_count(config))
    group = _close_group(config, symmetry)
    seen = set()
    orbits = []
    walked, mu1 = None, 0
    for inv in _candidates(config):
        slack = 2 * config.mu_bar - inv.rho()
        if slack < 0 or slack % 4:
            continue
        if inv.mark_map != walked:
            walked, mu1 = inv.mark_map, cusp_classes(config, inv).mu1
        if 4 * mu1 != slack or inv in seen:
            continue
        orbit = {_conjugate(inv, g) for g in group}
        seen |= orbit
        rep = min(orbit)
        report = chi_check(config, rep)
        feas = EXCLUDED_ETALE if etale_descent_excluded(config, rep) else ADMISSIBLE
        orbits.append(GluingOrbit(rep, report["partition"], report, feas, len(orbit)))
    return sorted(orbits, key=lambda o: o.representative)


# -- nodal quartic decision table ---------------------------------------------


def quartic_case_table(node_count: int, collinear_triple: bool = False) -> dict:
    """Structure of a nodal plane quartic with the given number of nodes."""
    if node_count < 0 or node_count > 6:
        raise GluingError("exceeds quartic bound")
    if node_count <= 2:
        return {"nodes": node_count, "reducible": False,
                "components": [["quartic"]],
                "description": "irreducible"}
    if node_count == 3:
        if collinear_triple:
            return {"nodes": 3, "reducible": True,
                    "components": [["smooth cubic", "line"]],
                    "description": "smooth cubic plus a general line"}
        return {"nodes": 3, "reducible": False,
                "components": [["quartic"]],
                "description": "irreducible (nodes not collinear)"}
    if node_count == 4:
        return {"nodes": 4, "reducible": True,
                "components": [["smooth conic", "smooth conic"],
                               ["nodal cubic", "line"]],
                "description": "two smooth conics, or a nodal cubic plus a line"}
    if node_count == 5:
        return {"nodes": 5, "reducible": True,
                "components": [["smooth conic", "line", "line"]],
                "description": "smooth conic plus two general lines"}
    return {"nodes": 6, "reducible": True,
            "components": [["line", "line", "line", "line"]],
            "description": "four lines in general position"}


# -- built-in configurations ---------------------------------------------------


def builtin_config(name: str) -> Tuple[MarkedConfig, List[ConfigSymmetry]]:
    """Named configurations mirroring the reducible-quartic case list."""
    builders = {
        "four-lines": _four_lines,
        "two-conics": _two_conics,
        "conic-two-lines": _conic_two_lines,
        "cubic-line": _cubic_line,
        "three-nodal": _three_nodal,
    }
    if name not in builders:
        raise GluingError(f"unknown config {name!r}; choose from {sorted(builders)}")
    return builders[name]()


def _four_lines():
    comps = tuple((0, tuple(f"P{i}{j}" for j in range(1, 5) if j != i))
                  for i in range(1, 5))
    matching = tuple((f"P{i}{j}", f"P{j}{i}")
                     for i in range(1, 5) for j in range(i + 1, 5))
    names = tuple(f"P({i}{j})" for i in range(1, 5) for j in range(i + 1, 5))
    config = MarkedConfig(comps, matching, names)

    def from_line_perm(s: Dict[int, int]) -> ConfigSymmetry:
        cp = tuple(s[i + 1] - 1 for i in range(4))
        md = {f"P{i}{j}": f"P{s[i]}{s[j]}"
              for i in range(1, 5) for j in range(1, 5) if i != j}
        return ConfigSymmetry(cp, tuple(sorted(md.items())))

    gens = [from_line_perm({1: 2, 2: 1, 3: 3, 4: 4}),
            from_line_perm({1: 2, 2: 3, 3: 4, 4: 1})]
    return config, gens


def _two_conics():
    comps = ((0, tuple(f"A{i}" for i in range(1, 5))),
             (0, tuple(f"B{i}" for i in range(1, 5))))
    matching = tuple((f"A{i}", f"B{i}") for i in range(1, 5))
    names = tuple(f"Q{i}" for i in range(1, 5))
    config = MarkedConfig(comps, matching, names)

    gens = [_relabel(config, (1, 0), *[(f"A{i}", f"B{i}") for i in range(1, 5)]),
            _relabel(config, (0, 1), ("A1", "A2"), ("B1", "B2")),
            _relabel(config, (0, 1), ("A1", "A2", "A3", "A4"), ("B1", "B2", "B3", "B4"))]
    return config, gens


def _conic_two_lines():
    comps = ((0, ("Q3", "R3", "S3", "T3")),   # the conic
             (0, ("P1", "Q1", "R1")),         # line 1
             (0, ("P2", "S2", "T2")))         # line 2
    matching = (("P1", "P2"), ("Q1", "Q3"), ("R1", "R3"),
                ("S2", "S3"), ("T2", "T3"))
    names = ("P", "Q", "R", "S", "T")
    config = MarkedConfig(comps, matching, names)
    swap_lines = _relabel(config, (0, 2, 1), ("P1", "P2"), ("Q1", "S2"), ("R1", "T2"),
                          ("Q3", "S3"), ("R3", "T3"))
    swap_qr = _relabel(config, (0, 1, 2), ("Q1", "R1"), ("Q3", "R3"))
    swap_st = _relabel(config, (0, 1, 2), ("S2", "T2"), ("S3", "T3"))
    return config, [swap_lines, swap_qr, swap_st]


def _cubic_line():
    comps = ((1, ("c1", "c2", "c3")), (0, ("l1", "l2", "l3")))
    matching = (("c1", "l1"), ("c2", "l2"), ("c3", "l3"))
    names = ("N1", "N2", "N3")
    config = MarkedConfig(comps, matching, names)
    return config, [_relabel(config, (0, 1), ("c1", "c2"), ("l1", "l2")),
                    _relabel(config, (0, 1), ("c1", "c2", "c3"), ("l1", "l2", "l3"))]


def _three_nodal():
    comps = ((0, tuple(f"m{i}" for i in range(1, 7))),)
    matching = (("m1", "m2"), ("m3", "m4"), ("m5", "m6"))
    names = ("P1", "P2", "P3")
    config = MarkedConfig(comps, matching, names)

    gens = [
        _relabel(config, (0,), ("m1", "m2")),
        _relabel(config, (0,), ("m1", "m3"), ("m2", "m4")),
        _relabel(config, (0,), ("m1", "m3", "m5"), ("m2", "m4", "m6")),
    ]
    return config, gens


# -- the minimum-node derivation -----------------------------------------------


def minimum_nodes_check() -> dict:
    """Re-derive that the plane quartic must carry at least three nodes.

    For 0, 1 or 2 nodes every involution satisfying the Gorenstein and
    chi conditions is flagged as an impossible etale descent, so no
    surface arises; the minimum is 3.
    """
    evidence = {}
    cases = {
        0: MarkedConfig(((3, ()),), ()),
        1: MarkedConfig(((2, ("P1", "P2")),), (("P1", "P2"),), ("P",)),
        2: MarkedConfig(((1, ("P1", "P2", "Q1", "Q2")),),
                        (("P1", "P2"), ("Q1", "Q2")), ("P", "Q")),
    }
    for mu_bar, config in cases.items():
        orbits = enumerate_gluings(config)
        feasible = [o for o in orbits if o.feasibility == ADMISSIBLE]
        evidence[mu_bar] = {
            "orbits": len(orbits),
            "excluded": len(orbits) - len(feasible),
            "feasible": len(feasible),
        }
    minimum = 3 if all(v["feasible"] == 0 for v in evidence.values()) else -1
    return {"minimum": minimum, "evidence": evidence}
