"""Gluing combinatorics for non-normal surfaces.

A nodal curve is presented by its normalisation: components with a
geometric genus and marked points (the node preimages), plus a perfect
matching pairing the two preimages of each node.  A gluing involution
acts on components and marks without fixing any mark; its geometric
fixed points away from the marks are counted per invariant component.
The module computes degenerate-cusp classes by union-find, checks the
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

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple


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
        comps = tuple((int(g), tuple(marks)) for g, marks in self.components)
        object.__setattr__(self, "components", comps)
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

    def component_of(self) -> Dict[str, int]:
        return {m: i for i, (_, marks) in enumerate(self.components) for m in marks}

    def node_name(self, pair: FrozenSet[str]) -> str:
        for i, (a, b) in enumerate(self.matching):
            if frozenset((a, b)) == pair:
                if self.node_names is not None:
                    return self.node_names[i]
                return "~".join(sorted((a, b)))
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
        return MarkedConfig(
            tuple((c["genus"], tuple(c["marks"])) for c in doc["components"]),
            tuple(tuple(p) for p in doc["matching"]),
            tuple(doc["node_names"]) if "node_names" in doc else None,
        )


def rho_options(genus: int) -> Tuple[int, ...]:
    """Possible fixed-point counts of an involution on a genus-g curve.

    Riemann-Hurwitz: rho = 2g + 2 - 4h for the quotient genus h, so a
    self-mapped rational component always has exactly two fixed points
    and a genus-1 component has none or four.
    """
    return tuple(2 * genus + 2 - 4 * h for h in range((genus + 1) // 2 + 1)
                 if 2 * genus + 2 - 4 * h >= 0)


@dataclass(frozen=True)
class GluingInvolution:
    """component_map and mark_map are involutions; no mark is fixed.

    fixed_point_counts assigns, to every tau-invariant component, the
    number of geometric fixed points on it (away from the marks).
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
    comp_of = config.component_of()
    marks = set(comp_of)
    if set(mark_map) != marks:
        raise GluingError("mark_map must be defined on every mark")
    for m, im in mark_map.items():
        if im not in marks or mark_map[im] != m:
            raise GluingError("mark_map is not an involution")
        if im == m:
            raise GluingError("mark_map must not fix a mark")
        if comp_of[im] != cm[comp_of[m]]:
            raise GluingError("mark_map incompatible with component_map")
    invariant = {i for i in range(n) if cm[i] == i}
    if set(fixed_point_counts) != invariant:
        raise GluingError("fixed_point_counts must cover exactly the invariant components")
    for i, c in fixed_point_counts.items():
        if c not in rho_options(config.components[i][0]):
            raise GluingError(
                f"component {i} of genus {config.components[i][0]} cannot have "
                f"{c} fixed points")
    return GluingInvolution(
        cm,
        tuple(sorted(mark_map.items())),
        tuple(sorted(fixed_point_counts.items())),
    )


# -- union-find cusp classes ---------------------------------------------------


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # deterministic: smaller label wins
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


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
    exchanged by the involution; the classes are then projected to the
    nodes.  Union-find order does not affect the resulting partition.
    """
    md = inv.mark_dict()
    uf = _UnionFind(sorted(md))
    for a, b in config.matching:
        uf.union(a, b)
    for m, im in md.items():
        uf.union(m, im)
    nodes: Dict[str, List[str]] = {}
    for a, b in config.matching:
        nodes.setdefault(uf.find(a), []).append(
            config.node_name(frozenset((a, b))))
    classes = tuple(sorted(tuple(sorted(v)) for v in nodes.values()))
    return CuspPartition(classes)


def chi_check(config: MarkedConfig, inv: GluingInvolution) -> dict:
    """chi(D) = (chi(Dbar) - mu_bar)/2 + rho/4 + mu1 and the gluing
    balance mu_bar = rho/2 + 2*mu1 (equivalent to chi(D) = -1 for a
    quartic).  Returns all the ingredients."""
    partition = cusp_classes(config, inv)
    mu_bar = config.mu_bar
    rho = inv.rho()
    mu1 = partition.mu1
    chi_bar = config.chi_bar()
    chi_D = Fraction(chi_bar - mu_bar, 2) + Fraction(rho, 4) + mu1
    holds = Fraction(mu_bar) == Fraction(rho, 2) + 2 * mu1
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
    pairs = {frozenset(p) for p in config.matching}
    for p in pairs:
        image = frozenset(md[m] for m in p)
        if image not in pairs:
            return False  # does not descend at all
        if image == p:
            return False  # descends, but fixes this node
    return True


# -- enumeration ---------------------------------------------------------------


@dataclass(frozen=True)
class ConfigSymmetry:
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
    comp_of = config.component_of()
    if set(md) != set(comp_of) or set(md.values()) != set(comp_of):
        raise GluingError("mark_perm is not a bijection on the marks")
    for m, im in md.items():
        if comp_of[im] != cp[comp_of[m]]:
            raise GluingError("mark_perm incompatible with component_perm")
        if config.components[comp_of[m]][0] != config.components[comp_of[im]][0]:
            raise GluingError("symmetry must preserve genus")
    pairs = {frozenset(p) for p in config.matching}
    for p in pairs:
        if frozenset(md[m] for m in p) not in pairs:
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


def _close_group(config: MarkedConfig,
                 generators: Sequence[ConfigSymmetry]) -> List[ConfigSymmetry]:
    n = len(config.components)
    marks = sorted(config.component_of())
    identity = ConfigSymmetry(tuple(range(n)), tuple((m, m) for m in marks))
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
    return sorted(group, key=lambda s: (s.component_perm, s.mark_perm))


def _invert(g: ConfigSymmetry) -> ConfigSymmetry:
    cp = g.component_perm
    inv_cp = tuple(cp.index(i) for i in range(len(cp)))
    md = g.mark_dict()
    return ConfigSymmetry(inv_cp, tuple(sorted((v, k) for k, v in md.items())))


def _conjugate(inv: GluingInvolution, g: ConfigSymmetry) -> GluingInvolution:
    """g o tau o g^{-1}."""
    gi = _invert(g)
    gcp, gicp = g.component_perm, gi.component_perm
    gmd, gimd = g.mark_dict(), gi.mark_dict()
    taucp = inv.component_map
    taumd = inv.mark_dict()
    new_cm = tuple(gcp[taucp[gicp[i]]] for i in range(len(taucp)))
    new_md = {m: gmd[taumd[gimd[m]]] for m in gmd}
    new_fp = {gcp[i]: c for i, c in inv.fixed_point_counts}
    return GluingInvolution(new_cm, tuple(sorted(new_md.items())),
                            tuple(sorted(new_fp.items())))


def _fpf_involutions(marks: Sequence[str]) -> List[Dict[str, str]]:
    """All fixed-point-free involutions of a finite set."""
    marks = sorted(marks)
    if len(marks) % 2:
        return []
    if not marks:
        return [{}]
    first, rest = marks[0], marks[1:]
    out = []
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for sub in _fpf_involutions(remaining):
            m = {first: partner, partner: first}
            m.update(sub)
            out.append(m)
    return out


def _component_involutions(config: MarkedConfig) -> List[Tuple[int, ...]]:
    """Involutive component permutations preserving (genus, mark count)."""
    n = len(config.components)
    sig = [(g, len(marks)) for g, marks in config.components]

    out: List[Tuple[int, ...]] = []

    def extend(assigned: Dict[int, int]):
        free = [i for i in range(n) if i not in assigned]
        if not free:
            out.append(tuple(assigned[i] for i in range(n)))
            return
        i = free[0]
        # fixed
        assigned[i] = i
        extend(assigned)
        del assigned[i]
        for j in free[1:]:
            if sig[i] == sig[j]:
                assigned[i], assigned[j] = j, i
                extend(assigned)
                del assigned[i], assigned[j]

    extend({})
    return out


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


def _canonical_key(inv: GluingInvolution):
    return (inv.component_map, inv.mark_map, inv.fixed_point_counts)


def _candidates(config: MarkedConfig) -> Iterator[GluingInvolution]:
    """Every gluing involution of the configuration, built lazily."""
    comps = config.components
    for cm in _component_involutions(config):
        invariant = [i for i in range(len(cm)) if cm[i] == i]
        swapped = [(i, cm[i]) for i in range(len(cm)) if i < cm[i]]
        # mark maps on swapped pairs: any bijection; on invariant
        # components: any fixed-point-free involution of the marks
        pair_choices = [[{**dict(zip(comps[i][1], perm)), **dict(zip(perm, comps[i][1]))}
                         for perm in permutations(comps[j][1])]
                        for i, j in swapped]
        fixed_choices = [_fpf_involutions(comps[i][1]) for i in invariant]
        rho_choices = [rho_options(comps[i][0]) for i in invariant]
        for maps in product(*pair_choices, *fixed_choices):
            mark_map = {a: b for m in maps for a, b in m.items()}
            for counts in product(*rho_choices):
                yield make_involution(config, cm, mark_map, dict(zip(invariant, counts)))


def enumerate_gluings(config: MarkedConfig,
                      symmetry: Sequence[ConfigSymmetry] = ()) -> List[GluingOrbit]:
    """All gluing involutions passing the Gorenstein and chi conditions,
    one representative per symmetry orbit, each annotated with its cusp
    partition and geometric feasibility."""
    group = _close_group(config, symmetry)
    orbits: Dict[tuple, GluingOrbit] = {}
    for inv in _candidates(config):
        if not chi_check(config, inv)["holds"]:
            continue
        orbit_keys = {_canonical_key(_conjugate(inv, g)) for g in group}
        canon = min(orbit_keys)
        if canon in orbits:
            continue
        rep = GluingInvolution(*canon)
        rep_report = chi_check(config, rep)
        feas = EXCLUDED_ETALE if etale_descent_excluded(config, rep) else ADMISSIBLE
        orbits[canon] = GluingOrbit(rep, rep_report["partition"], rep_report,
                                    feas, len(orbit_keys))
    return [orbits[k] for k in sorted(orbits)]


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

    def node_perm(s: Dict[int, int]) -> ConfigSymmetry:
        md = {}
        for i in range(1, 5):
            md[f"A{i}"] = f"A{s[i]}"
            md[f"B{i}"] = f"B{s[i]}"
        return ConfigSymmetry((0, 1), tuple(sorted(md.items())))

    swap = ConfigSymmetry(
        (1, 0),
        tuple(sorted({**{f"A{i}": f"B{i}" for i in range(1, 5)},
                      **{f"B{i}": f"A{i}" for i in range(1, 5)}}.items())))
    gens = [swap,
            node_perm({1: 2, 2: 1, 3: 3, 4: 4}),
            node_perm({1: 2, 2: 3, 3: 4, 4: 1})]
    return config, gens


def _conic_two_lines():
    comps = ((0, ("Q3", "R3", "S3", "T3")),   # the conic
             (0, ("P1", "Q1", "R1")),         # line 1
             (0, ("P2", "S2", "T2")))         # line 2
    matching = (("P1", "P2"), ("Q1", "Q3"), ("R1", "R3"),
                ("S2", "S3"), ("T2", "T3"))
    names = ("P", "Q", "R", "S", "T")
    config = MarkedConfig(comps, matching, names)
    swap_lines = ConfigSymmetry(
        (0, 2, 1),
        tuple(sorted({
            "P1": "P2", "P2": "P1", "Q1": "S2", "S2": "Q1",
            "R1": "T2", "T2": "R1", "Q3": "S3", "S3": "Q3",
            "R3": "T3", "T3": "R3"}.items())))
    swap_qr = ConfigSymmetry(
        (0, 1, 2),
        tuple(sorted({"Q1": "R1", "R1": "Q1", "Q3": "R3", "R3": "Q3",
                      "P1": "P1", "P2": "P2", "S2": "S2", "T2": "T2",
                      "S3": "S3", "T3": "T3"}.items())))
    swap_st = ConfigSymmetry(
        (0, 1, 2),
        tuple(sorted({"S2": "T2", "T2": "S2", "S3": "T3", "T3": "S3",
                      "P1": "P1", "P2": "P2", "Q1": "Q1", "R1": "R1",
                      "Q3": "Q3", "R3": "R3"}.items())))
    return config, [swap_lines, swap_qr, swap_st]


def _cubic_line():
    comps = ((1, ("c1", "c2", "c3")), (0, ("l1", "l2", "l3")))
    matching = (("c1", "l1"), ("c2", "l2"), ("c3", "l3"))
    names = ("N1", "N2", "N3")
    config = MarkedConfig(comps, matching, names)

    def node_perm(s: Dict[int, int]) -> ConfigSymmetry:
        md = {}
        for i in range(1, 4):
            md[f"c{i}"] = f"c{s[i]}"
            md[f"l{i}"] = f"l{s[i]}"
        return ConfigSymmetry((0, 1), tuple(sorted(md.items())))

    return config, [node_perm({1: 2, 2: 1, 3: 3}),
                    node_perm({1: 2, 2: 3, 3: 1})]


def _three_nodal():
    comps = ((0, tuple(f"m{i}" for i in range(1, 7))),)
    matching = (("m1", "m2"), ("m3", "m4"), ("m5", "m6"))
    names = ("P1", "P2", "P3")
    config = MarkedConfig(comps, matching, names)

    def mk(md: Dict[str, str]) -> ConfigSymmetry:
        full = {f"m{i}": f"m{i}" for i in range(1, 7)}
        full.update(md)
        return ConfigSymmetry((0,), tuple(sorted(full.items())))

    gens = [
        mk({"m1": "m2", "m2": "m1"}),
        mk({"m1": "m3", "m3": "m1", "m2": "m4", "m4": "m2"}),
        mk({"m1": "m3", "m3": "m5", "m5": "m1",
            "m2": "m4", "m4": "m6", "m6": "m2"}),
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
