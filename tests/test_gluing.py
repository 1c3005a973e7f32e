import random
from collections import Counter
from fractions import Fraction

import pytest

from stratabench import BudgetExceeded, gluing
from stratabench.gluing import (ADMISSIBLE, EXCLUDED_ETALE,
                                GluingError, GluingOrbit,
                                MarkedConfig, builtin_config,
                                chi_check, cusp_classes, enumerate_gluings,
                                etale_descent_excluded, make_involution,
                                minimum_nodes_check, quartic_case_table,
                                rho_options, _candidate_count, _candidates,
                                _check_symmetry, _close_group, _conjugate, _relabel)


def four_lines_involution(phi12, phi34):
    """Involution of the four-lines configuration from the two bijections."""
    config, _ = builtin_config("four-lines")
    mark_map = {}
    for src, dst in list(phi12.items()) + list(phi34.items()):
        mark_map[src] = dst
        mark_map[dst] = src
    return make_involution(config, (1, 0, 3, 2), mark_map, {})


X21 = ({"P12": "P21", "P13": "P24", "P14": "P23"},
       {"P31": "P41", "P32": "P42", "P34": "P43"})
X22 = ({"P12": "P21", "P13": "P23", "P14": "P24"},
       {"P31": "P42", "P32": "P41", "P34": "P43"})
X23 = ({"P12": "P23", "P13": "P24", "P14": "P21"},
       {"P31": "P42", "P32": "P41", "P34": "P43"})


def test_rho_options():
    assert tuple(rho_options(0)) == (2,)
    assert set(rho_options(1)) == {0, 4}
    assert set(rho_options(3)) == {8, 4, 0}
    # the range lists Riemann-Hurwitz's 2g + 2 - 4h >= 0 in order
    for g in range(61):
        listed = tuple(2 * g + 2 - 4 * h for h in range((g + 1) // 2 + 1)
                       if 2 * g + 2 - 4 * h >= 0)
        assert tuple(rho_options(g)) == listed
        assert len(rho_options(g)) == len(listed) == (g + 1) // 2 + 1


@pytest.mark.parametrize("genus", [1.5, 1.0, True, "1", Fraction(1)])
def test_marked_config_refuses_a_non_integer_genus(genus):
    # a genus of 1.5 used to be truncated by int() and read as genus 1
    with pytest.raises(GluingError, match="genus must be an integer"):
        MarkedConfig(((genus, ("a", "b")),), (("a", "b"),))


def test_cusp_classes_table_rows():
    config, _ = builtin_config("four-lines")
    inv = four_lines_involution(*X23)
    part = cusp_classes(config, inv)
    assert set(map(frozenset, part.classes)) == {
        frozenset({"P(12)", "P(23)", "P(14)"}),
        frozenset({"P(13)", "P(24)"}),
        frozenset({"P(34)"})}

    inv = four_lines_involution(*X21)
    part = cusp_classes(config, inv)
    assert set(map(frozenset, part.classes)) == {
        frozenset({"P(12)"}), frozenset({"P(34)"}),
        frozenset({"P(13)", "P(14)", "P(23)", "P(24)"})}


def test_cusp_classes_single_node():
    config = MarkedConfig(((1, ("P1", "P2")),), (("P1", "P2"),), ("P",))
    inv = make_involution(config, (0,), {"P1": "P2", "P2": "P1"}, {0: 0})
    part = cusp_classes(config, inv)
    assert part.classes == (("P",),)


def test_chi_check_examples():
    # two conics, Case A: mu_bar=4, rho=4, mu1=1
    config, _ = builtin_config("two-conics")
    inv = make_involution(
        config, (0, 1),
        {"A1": "A2", "A2": "A1", "A3": "A4", "A4": "A3",
         "B1": "B3", "B3": "B1", "B2": "B4", "B4": "B2"},
        {0: 2, 1: 2})
    rep = chi_check(config, inv)
    assert (rep["mu_bar"], rep["rho"], rep["mu1"]) == (4, 4, 1)
    assert rep["holds"] and rep["chi_D"] == -1

    # conic and two lines: mu_bar=5, rho=2, mu1=2
    config, _ = builtin_config("conic-two-lines")
    inv = make_involution(
        config, (0, 2, 1),
        {"P1": "P2", "P2": "P1", "Q1": "S2", "S2": "Q1", "R1": "T2", "T2": "R1",
         "Q3": "R3", "R3": "Q3", "S3": "T3", "T3": "S3"},
        {0: 2})
    rep = chi_check(config, inv)
    assert (rep["mu_bar"], rep["rho"], rep["mu1"]) == (5, 2, 2)
    assert rep["holds"]

    # mu_bar=2 with rho=0, mu1=2 fails (2 != 4)
    config = MarkedConfig(((1, ("P1", "P2", "Q1", "Q2")),),
                          (("P1", "P2"), ("Q1", "Q2")), ("P", "Q"))
    inv = make_involution(config, (0,),
                          {"P1": "P2", "P2": "P1", "Q1": "Q2", "Q2": "Q1"},
                          {0: 0})
    rep = chi_check(config, inv)
    assert (rep["mu_bar"], rep["rho"], rep["mu1"]) == (2, 0, 2)
    assert not rep["holds"]


def test_involution_validation():
    config, _ = builtin_config("four-lines")
    with pytest.raises(GluingError):
        # fixed mark
        make_involution(config, (0, 1, 2, 3), {m: m for _, marks in
                                               config.components for m in marks}, {})
    with pytest.raises(GluingError):
        # component map not an involution
        four = {"P12": "P21", "P13": "P24", "P14": "P23"}
        make_involution(config, (1, 2, 3, 0), four, {})
    config, _ = builtin_config("two-conics")
    pairs = {"A1": "A2", "A3": "A4", "B1": "B3", "B2": "B4"}
    good = {**pairs, **{b: a for a, b in pairs.items()}}
    make_involution(config, (0, 1), good, {0: 2, 1: 2})
    for mark_map, counts, message in (
            ({**good, "A1": "Z9"}, {0: 2, 1: 2}, "not an involution"),
            ({m: good[m] for m in good if m != "B4"}, {0: 2, 1: 2}, "every mark"),
            ({**good, "A1": "B1", "B1": "A1", "A2": "B3", "B3": "A2"}, {0: 2, 1: 2},
             "incompatible with component_map"),
            (good, {0: 2}, "exactly the invariant components"),
            (good, {0: 4, 1: 2}, "cannot have 4 fixed points")):
        with pytest.raises(GluingError, match=message):
            make_involution(config, (0, 1), mark_map, counts)


def test_four_lines_enumeration():
    config, sym = builtin_config("four-lines")
    orbits = enumerate_gluings(config, sym)
    assert len(orbits) == 3
    sizes = sorted(o.cusp_partition.sizes() for o in orbits)
    assert sizes == [(3, 2, 1), (4, 1, 1), (4, 1, 1)]
    assert all(o.feasibility == ADMISSIBLE for o in orbits)
    # the three reference involutions all appear among the enumerated
    # orbits; the (3,2,1)-pattern orbit is distinct from the other two.
    # (The first two are conjugate under relabelling lines by (13)(24), so the
    # remaining (4,1,1)-orbit is represented by the involution whose line
    # bijections are both "straight".)
    group = _close_group(config, sym)
    reps = {o.representative for o in orbits}
    canon = {}
    for name, data in (("X21", X21), ("X22", X22), ("X23", X23)):
        inv = four_lines_involution(*data)
        canon[name] = min(_conjugate(inv, g) for g in group)
    assert set(canon.values()) <= reps
    assert canon["X23"] not in (canon["X21"], canon["X22"])
    # no enumerated involution fixes a mark (Gorenstein condition)
    for o in orbits:
        assert all(a != b for a, b in o.representative.mark_map)


def test_two_conics_enumeration():
    config, sym = builtin_config("two-conics")
    orbits = enumerate_gluings(config, sym)
    patterns = {(o.cusp_partition.sizes(), o.feasibility) for o in orbits}
    assert patterns == {
        ((4,), ADMISSIBLE),
        ((3, 1), ADMISSIBLE),
        ((2, 2), EXCLUDED_ETALE),
    }


def test_conic_two_lines_enumeration():
    config, sym = builtin_config("conic-two-lines")
    orbits = enumerate_gluings(config, sym)
    assert len(orbits) == 3
    sizes = sorted(o.cusp_partition.sizes() for o in orbits)
    assert sizes == [(3, 2), (4, 1), (4, 1)]
    assert all(o.chi["rho"] == 2 and o.chi["mu1"] == 2 for o in orbits)
    # Case B has cusp preimages {P,Q,S} and {R,T}
    caseB = [o for o in orbits if o.cusp_partition.sizes() == (3, 2)]
    assert len(caseB) == 1
    classes = set(map(frozenset, caseB[0].cusp_partition.classes))
    assert frozenset({"P", "Q", "S"}) in classes or \
        frozenset({"P", "R", "T"}) in classes


def test_cubic_line_enumeration_empty():
    config, sym = builtin_config("cubic-line")
    assert enumerate_gluings(config, sym) == []


def test_three_nodal_enumeration():
    config, sym = builtin_config("three-nodal")
    orbits = enumerate_gluings(config, sym)
    assert len(orbits) == 1
    assert orbits[0].cusp_partition.mu1 == 1
    assert orbits[0].chi["rho"] == 2
    assert orbits[0].feasibility == ADMISSIBLE


def test_canonicalization_constant_on_orbits():
    config, sym = builtin_config("four-lines")
    group = _close_group(config, sym)
    inv = four_lines_involution(*X23)
    rng = random.Random(7)

    def canon(i):
        return min(_conjugate(i, g) for g in group)

    base = canon(inv)
    for _ in range(10):
        word = [group[rng.randrange(len(group))] for _ in range(3)]
        moved = inv
        for g in word:
            moved = _conjugate(moved, g)
        assert canon(moved) == base
    # idempotence: canonical form of the canonical representative
    rep = canon(inv)
    assert canon(rep) == rep


def test_partition_independent_of_matching_order():
    config, _ = builtin_config("four-lines")
    inv = four_lines_involution(*X21)
    shuffled = MarkedConfig(
        config.components,
        tuple(reversed(config.matching)),
        tuple(reversed(config.node_names)))
    a = cusp_classes(config, inv)
    b = cusp_classes(shuffled, inv)
    assert set(map(frozenset, a.classes)) == set(map(frozenset, b.classes))


def test_chi_condition_reasserted_on_orbits():
    for name in ("four-lines", "two-conics", "conic-two-lines", "three-nodal"):
        config, sym = builtin_config(name)
        for o in enumerate_gluings(config, sym):
            c = o.chi
            assert Fraction(c["mu_bar"]) == Fraction(c["rho"], 2) + 2 * c["mu1"]


def test_minimum_nodes_check():
    out = minimum_nodes_check()
    assert out["minimum"] == 3
    assert out["evidence"][0]["feasible"] == 0
    assert out["evidence"][1]["orbits"] == 0
    assert out["evidence"][2]["feasible"] == 0
    assert out["evidence"][2]["excluded"] > 0


def test_etale_descent_rule():
    # the mu_bar=2 pattern tau(P_i) = Q_i descends and is excluded
    config = MarkedConfig(((1, ("P1", "P2", "Q1", "Q2")),),
                          (("P1", "P2"), ("Q1", "Q2")), ("P", "Q"))
    inv = make_involution(config, (0,),
                          {"P1": "Q1", "Q1": "P1", "P2": "Q2", "Q2": "P2"},
                          {0: 0})
    assert etale_descent_excluded(config, inv)
    # swapping within a pair fixes the node downstairs: not excluded
    inv2 = make_involution(config, (0,),
                           {"P1": "P2", "P2": "P1", "Q1": "Q2", "Q2": "Q1"},
                           {0: 0})
    assert not etale_descent_excluded(config, inv2)


def test_quartic_case_table():
    assert quartic_case_table(3, collinear_triple=False)["reducible"] is False
    assert quartic_case_table(3, collinear_triple=True)["components"] == \
        [["smooth cubic", "line"]]
    assert quartic_case_table(6)["components"] == [["line"] * 4]
    assert quartic_case_table(1)["reducible"] is False
    assert quartic_case_table(4)["components"] == \
        [["smooth conic", "smooth conic"], ["nodal cubic", "line"]]
    assert quartic_case_table(5)["components"] == [["smooth conic", "line", "line"]]
    with pytest.raises(GluingError, match="exceeds quartic bound"):
        quartic_case_table(7)


def test_config_json_round_trip():
    config, _ = builtin_config("four-lines")
    assert MarkedConfig.from_json(config.to_json()) == config


def random_config(sizes, genera, seed):
    """Components of the given sizes and genera, marks matched at random."""
    comps = tuple((g, tuple(f"c{i}m{j}" for j in range(n)))
                  for i, (n, g) in enumerate(zip(sizes, genera)))
    marks = [m for _, ms in comps for m in ms]
    random.Random(seed).shuffle(marks)
    return MarkedConfig(comps, tuple(zip(marks[::2], marks[1::2])))


@pytest.mark.parametrize("sizes,genera,count", [
    ((3, 3), (1, 1), 6),                 # invariant 3-mark components: none
    ((4, 4), (0, 1), 18),                # genus 1: rho in {0, 4}
    ((2, 2, 2, 2), (1, 1, 1, 1), 76),    # one class of four components
    ((2, 4, 2), (1, 0, 1), 18),
    ((6,), (2,), 30),
    ((0, 0, 0), (0, 0, 0), 4),           # mark-free components
])
def test_candidate_count_closed_form(sizes, genera, count):
    config = random_config(sizes, genera, 3)
    assert _candidate_count(config) == count == sum(1 for _ in _candidates(config))


@pytest.mark.parametrize("genus,count", [(10 ** 9, 500000001), (10 ** 30, 5 * 10 ** 29 + 1)])
def test_huge_genus_is_refused_without_listing_rho(genus, count):
    import time

    config = MarkedConfig(((genus, ()),), ())
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=f"^gluing.enumerate: {count} steps exceed "
                       "the step budget of 2000000;"):
        enumerate_gluings(config)
    assert time.perf_counter() - start < 1


def test_over_budget_refused_before_listing_component_maps():
    # 20 mark-free components have 23 758 664 096 component involutions
    config = MarkedConfig(tuple((0, ()) for _ in range(20)), ())
    assert _candidate_count(config) == 23758664096
    with pytest.raises(BudgetExceeded, match="^gluing.enumerate: 23758664096 steps exceed"):
        enumerate_gluings(config)


def test_candidate_count_of_builtin_configs():
    for name in ("four-lines", "two-conics", "conic-two-lines", "cubic-line",
                 "three-nodal"):
        config, _ = builtin_config(name)
        assert _candidate_count(config) == sum(1 for _ in _candidates(config))


def test_cusp_classes_match_a_closure():
    for sizes, genera, seed in (((4, 4), (0, 0), 1), ((2, 4, 2), (1, 0, 1), 2)):
        config = random_config(sizes, genera, seed)
        mate = dict(config.matching)
        mate.update((b, a) for a, b in config.matching)
        for inv in _candidates(config):
            md = inv.mark_dict()
            classes = set()
            for a, b in config.matching:
                marks = {a}
                while True:
                    grown = marks | {mate[m] for m in marks} | {md[m] for m in marks}
                    if grown == marks:
                        break
                    marks = grown
                classes.add(tuple(sorted(config.node_name(frozenset((m, mate[m])))
                                         for m in marks if m < mate[m])))
            assert cusp_classes(config, inv).classes == tuple(sorted(classes))


BUILTINS = ("four-lines", "two-conics", "conic-two-lines", "cubic-line", "three-nodal")


@pytest.mark.parametrize("config,symmetry,passing", [
    *[(*builtin_config(name), count) for name, count in zip(BUILTINS, (21, 17, 8, 0, 8))],
    (random_config((4, 4), (0, 0), 4), (), 14),
    (random_config((2, 2, 2, 2), (1, 1, 1, 1), 1), (), 27),
])
def test_orbit_sizes_sum_to_the_chi_passing_candidates(config, symmetry, passing):
    # orbit-stabiliser: the orbits partition the chi-passing candidates
    count = sum(chi_check(config, inv)["holds"] for inv in _candidates(config))
    assert count == passing
    assert sum(o.orbit_size for o in enumerate_gluings(config, symmetry)) == count


def test_symmetry_must_preserve_the_matching():
    config, _ = builtin_config("two-conics")
    _check_symmetry(config, _relabel(config, (0, 1), ("A1", "A2"), ("B1", "B2")))
    with pytest.raises(GluingError, match="symmetry must preserve the matching"):
        _check_symmetry(config, _relabel(config, (0, 1), ("A1", "A2")))
    with pytest.raises(GluingError, match="symmetry must preserve the matching"):
        enumerate_gluings(config, [_relabel(config, (0, 1), ("B1", "B2", "B3"))])


def test_node_name_refuses_a_pair_that_is_not_a_node():
    config, _ = builtin_config("four-lines")
    assert config.node_name(frozenset(("P21", "P12"))) == "P(12)"
    unnamed = random_config((2, 2), (0, 0), 1)
    for a, b in unnamed.matching:
        assert unnamed.node_name(frozenset((b, a))) == "~".join(sorted((a, b)))
    for pair in (("P12", "P13"), ("P12",), ("P12", "P21", "P13"), ("P12", "Q"),
                 ("Q", "R"), ()):
        with pytest.raises(GluingError, match="not a matching pair"):
            config.node_name(frozenset(pair))


def doubled_config(sizes, genera, seed):
    """Copies A and B of each component, matched at random so that
    exchanging the two copies is a symmetry of the configuration."""
    rng = random.Random(seed)
    comps = tuple((g, tuple(f"{c}{i}m{j}" for j in range(n)))
                  for c in "AB" for i, (n, g) in enumerate(zip(sizes, genera)))
    marks = [f"{i}m{j}" for i, n in enumerate(sizes) for j in range(n)]
    rng.shuffle(marks)
    matching = []
    for a, b in zip(marks[::2], marks[1::2]):
        cross = rng.random() < 0.5
        matching += [("A" + a, ("B" if cross else "A") + b),
                     ("B" + a, ("A" if cross else "B") + b)]
    config = MarkedConfig(comps, tuple(matching))
    k = len(sizes)
    swap = _relabel(config, (*range(k, 2 * k), *range(k)),
                    *[("A" + m, "B" + m) for m in marks])
    return config, [swap]


def reference_gluings(config, symmetry):
    """The orbits of enumerate_gluings, from chi_check on every candidate."""
    group = _close_group(config, symmetry)
    orbits = {}
    for inv in _candidates(config):
        if not chi_check(config, inv)["holds"]:
            continue
        orbit = {_conjugate(inv, g) for g in group}
        rep = min(orbit)
        if rep not in orbits:
            report = chi_check(config, rep)
            feas = EXCLUDED_ETALE if etale_descent_excluded(config, rep) else ADMISSIBLE
            orbits[rep] = GluingOrbit(rep, report["partition"], report, feas, len(orbit))
    return [orbits[k].to_json() for k in sorted(orbits)]


@pytest.mark.parametrize("config,symmetry", [
    *[builtin_config(name) for name in BUILTINS],
    (random_config((4, 4, 2), (1, 1, 0), 6), ()),      # genus 1: rho in {0, 4}
    (random_config((4, 4), (1, 1), 5), ()),
    (random_config((6,), (2,), 7), ()),                # genus 2: rho in {2, 6}
    (random_config((2, 2, 4), (2, 2, 1), 5), ()),
    (random_config((2, 4, 2), (2, 0, 1), 6), ()),
    (random_config((6, 2), (2, 1), 5), ()),            # every rho pruned
    doubled_config((2, 4), (1, 2), 10),
    (random_config((7, 7), (0, 0), 11), ()),           # rho = 0, mu_bar = 7
    (MarkedConfig(((3, ()),), ()), ()),                # mu_bar = 0, rho in {0, 4, 8}
])
def test_rho_prune_keeps_every_orbit(config, symmetry):
    got = [o.to_json() for o in enumerate_gluings(config, symmetry)]
    assert got == reference_gluings(config, symmetry)


def gluing_work(monkeypatch, config, symmetry=()):
    """(candidates built, cusp cycles walked) by one enumerate_gluings."""
    calls = Counter()
    for name in ("make_involution", "cusp_classes"):
        def counted(*args, _fn=getattr(gluing, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(gluing, name, counted)
    enumerate_gluings(config, symmetry)
    return calls["make_involution"], calls["cusp_classes"]


def test_gluing_work_is_pinned(monkeypatch):
    # four-lines: every candidate has rho = 0 and slack 12, so each of the
    # 108 mark maps is walked once, plus once per representative (3 orbits)
    assert gluing_work(monkeypatch, *builtin_config("four-lines")) == (108, 111)
    # two 7-mark rational lines: rho = 0 and slack 14, so nothing is walked
    assert gluing_work(monkeypatch, random_config((7, 7), (0, 0), 3)) == (5040, 0)


def test_each_orbit_is_conjugated_once(monkeypatch):
    # orbits x |G|: a candidate of an orbit already found is skipped by lookup
    calls = Counter()

    def counted(inv, g, _fn=gluing._conjugate):
        calls["conjugate"] += 1
        return _fn(inv, g)

    monkeypatch.setattr(gluing, "_conjugate", counted)
    for name, orbits, group, conjugations in (("four-lines", 3, 24, 72),
                                              ("two-conics", 3, 48, 144),
                                              ("conic-two-lines", 3, 8, 24),
                                              ("cubic-line", 0, 6, 0),
                                              ("three-nodal", 1, 48, 48)):
        config, sym = builtin_config(name)
        assert len(_close_group(config, sym)) == group
        calls.clear()
        assert len(enumerate_gluings(config, sym)) == orbits
        assert calls["conjugate"] == conjugations == orbits * group, name


@pytest.mark.parametrize("config,symmetry", [
    *[builtin_config(name) for name in BUILTINS],
    doubled_config((2, 4), (1, 0), 1),
    doubled_config((3, 1), (0, 1), 2),
])
def test_orbit_count_by_burnside(config, symmetry):
    # orbits = (1/|G|) sum over g of the chi-passing candidates g fixes
    group = _close_group(config, symmetry)
    passing = [inv for inv in _candidates(config) if chi_check(config, inv)["holds"]]
    fixed = sum(_conjugate(inv, g) == inv for g in group for inv in passing)
    assert fixed % len(group) == 0
    assert len(enumerate_gluings(config, symmetry)) == fixed // len(group)


def relabelled(config, symmetry, rng):
    """The configuration with its marks renamed and its components, its
    nodes and the two ends of each node reordered at random, and the
    symmetry generators moved through the same relabelling."""
    marks = sorted(config.component_of)
    names = [f"r{i}" for i in range(len(marks))]
    rng.shuffle(names)
    rename = dict(zip(marks, names))
    n = len(config.components)
    move = rng.sample(range(n), n)          # component i becomes component move[i]
    back = {j: i for i, j in enumerate(move)}
    comps = tuple((config.components[back[j]][0],
                   tuple(rename[m] for m in config.components[back[j]][1])) for j in range(n))
    order = rng.sample(range(config.mu_bar), config.mu_bar)
    matching = tuple(tuple(rename[m] for m in config.matching[k][::rng.choice((1, -1))])
                     for k in order)
    node_names = config.node_names and tuple(config.node_names[k] for k in order)
    moved = [gluing.ConfigSymmetry(
        tuple(move[g.component_perm[back[j]]] for j in range(n)),
        tuple(sorted((rename[m], rename[im]) for m, im in g.mark_perm))) for g in symmetry]
    return MarkedConfig(comps, matching, node_names), moved


def orbit_invariants(config, symmetry):
    orbits = enumerate_gluings(config, symmetry)
    return len(orbits), Counter(
        (config.mu_bar, o.representative.rho(), o.cusp_partition.mu1,
         o.cusp_partition.sizes(), o.feasibility, o.orbit_size) for o in orbits)


@pytest.mark.parametrize("config,symmetry", [
    *[builtin_config(name) for name in BUILTINS],
    *[(random_config(sizes, genera, seed), ()) for seed, (sizes, genera) in enumerate((
        ((2, 2), (1, 1)), ((3, 3, 2), (1, 1, 1)), ((2, 2, 2, 2), (0, 0, 0, 0)),
        ((4, 4), (0, 0)), ((4, 4, 2), (0, 0, 0)), ((8,), (1,))))],
])
def test_orbits_are_invariant_under_relabelling(config, symmetry):
    rng = random.Random(repr(config))
    expected = orbit_invariants(config, symmetry)
    for _ in range(2):
        assert orbit_invariants(*relabelled(config, symmetry, rng)) == expected
