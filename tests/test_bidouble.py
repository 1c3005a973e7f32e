import random
from fractions import Fraction

import pytest

from stratabench.bidouble import (PLANE, BuildingData, BuildingDataError,
                                  DivisorMultiset, SPECIAL_POINTS,
                                  classify_point, known_examples,
                                  normalize_building_data,
                                  validate_building_data)


def V(name):
    return PLANE.var(name)


def test_validate_triple_intersection():
    x, y, z = V("x"), V("y"), V("z")
    assert validate_building_data(BuildingData(x, y ** 3, z ** 3))["valid"]
    # (0:0:1) lies on all three
    assert not validate_building_data(BuildingData(x, y ** 3, y * z * z))["valid"]


def test_validate_degree_enforcement():
    x, y = V("x"), V("y")
    with pytest.raises(BuildingDataError):
        BuildingData(x * x, y ** 3, y ** 3)  # D0 not a line
    with pytest.raises(BuildingDataError):
        BuildingData(x, y * y, y ** 3)  # D1 not a cubic


def test_classify_three_lines_pattern():
    bd = known_examples("Z1")
    c = classify_point(bd, (Fraction(0), Fraction(0), Fraction(1)))
    assert c.tag == "elliptic-degree-1"
    assert sorted(c.multiplicities) == [0, 1, 3]


def test_classify_two_nodes_pattern():
    bd = known_examples("Z4")
    c = classify_point(bd, (Fraction(0), Fraction(0), Fraction(1)))
    assert c.tag == "elliptic-degree-4"
    assert c.multiplicities == (0, 2, 2)


def test_classify_branch_smooth():
    x, y, z = V("x"), V("y"), V("z")
    # transverse crossing of the line D0 and one smooth branch of D1
    bd = BuildingData(x, y * z * z + x ** 3 + y ** 3, z ** 3 + x ** 3 + x * y * y)
    c = classify_point(bd, (Fraction(0), Fraction(0), Fraction(1)))
    assert c.tag == "branch-smooth"
    assert sum(c.multiplicities) == 2


def test_classify_non_ordinary_is_other():
    x, y, z = V("x"), V("y"), V("z")
    # D0 = x is tangent to the branch of D1 with initial form x^2-ish:
    # product has a square factor
    bd = BuildingData(x, x * x * z + y ** 3, z ** 3 + y ** 3 + x ** 3 + x * y * z)
    c = classify_point(bd, (Fraction(0), Fraction(0), Fraction(1)))
    assert c.tag == "other"
    assert "squarefree" in c.diagnostic


def test_classify_point_off_divisor():
    bd = known_examples("Z1")
    with pytest.raises(BuildingDataError):
        classify_point(bd, (Fraction(1), Fraction(3), Fraction(973)))


def test_classify_invariant_under_projectivities():
    rng = random.Random(41)
    bd = known_examples("Z1")
    P = (Fraction(0), Fraction(0), Fraction(1))
    x, y, z = V("x"), V("y"), V("z")
    for _ in range(4):
        while True:
            M = [[Fraction(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                   - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                   + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
            if det != 0:
                break
        sub = {n: x.scale(M[0][i]) + y.scale(M[1][i]) + z.scale(M[2][i])
               for i, n in enumerate(PLANE.names)}
        moved = BuildingData(bd.D0.substitute(sub), bd.D1.substitute(sub),
                             bd.D2.substitute(sub))
        # the substitution realises D o M^T, so the special point moves
        # to the solution of M^T Q = P
        from stratabench import linalg
        Mt = [[M[j][i] for j in range(3)] for i in range(3)]
        sol = linalg.solve(Mt, list(P))
        assert sol is not None
        tag_moved = classify_point(moved, tuple(sol)).tag
        assert tag_moved == "elliptic-degree-1"


def test_known_examples_all_validate_and_classify():
    expected = {
        "Z1": ["elliptic-degree-1"],
        "Z1prime": ["elliptic-degree-1"],
        "torus": ["elliptic-degree-1", "elliptic-degree-1"],
        "bielliptic": ["elliptic-degree-1", "elliptic-degree-1"],
        "Z4": ["elliptic-degree-4"],
    }
    for name, tags in expected.items():
        bd = known_examples(name)
        assert validate_building_data(bd)["valid"], name
        got = [classify_point(bd, P).tag for P in SPECIAL_POINTS[name]]
        assert got == tags, name
    with pytest.raises(BuildingDataError):
        known_examples("Z99")


# -- normalisation ---------------------------------------------------------------


def test_normalize_fixpoint():
    d = DivisorMultiset((("a", 1),), (("b", 1),), (("c", 1),))
    assert normalize_building_data(d) == d


def test_normalize_type_b_trace():
    d = DivisorMultiset(
        (("line", 1), ("E", 1)),
        (("L1", 1), ("L2", 1), ("L3", 1), ("E", 3)),
        (("cubic", 1),))
    out = normalize_building_data(d)
    assert out == DivisorMultiset(
        (("line", 1),),
        (("L1", 1), ("L2", 1), ("L3", 1)),
        (("E", 1), ("cubic", 1)))


def test_normalize_label_in_all_three():
    d = DivisorMultiset((("G", 2),), (("G", 1),), (("G", 1),))
    out = normalize_building_data(d)
    assert out == DivisorMultiset((("G", 1),), (), ())


def test_normalize_idempotent_and_reduced():
    rng = random.Random(13)
    labels = ["a", "b", "c", "d", "e"]
    for _ in range(25):
        lists = []
        for _ in range(3):
            chosen = rng.sample(labels, rng.randint(0, len(labels)))
            lists.append(tuple((l, rng.randint(0, 4)) for l in chosen))
        d = DivisorMultiset(*lists)
        out = normalize_building_data(d)
        # multiplicities in {0,1} (zeros dropped entirely)
        assert all(m == 1 for part in out.lists() for m in part.values())
        # supports pairwise disjoint
        supports = [set(part) for part in out.lists()]
        assert not (supports[0] & supports[1])
        assert not (supports[0] & supports[2])
        assert not (supports[1] & supports[2])
        assert normalize_building_data(out) == out


def test_multiset_json_round_trip():
    d = DivisorMultiset((("a", 1),), (("b", 2), ("c", 1)), ())
    assert DivisorMultiset.from_json(d.to_json()) == d


@pytest.mark.parametrize("entry", [("a", 1.5), ("a", 1.0), ("a", True), ("a", "1"),
                                   (1, 1), (None, 1)])
def test_multiset_refuses_wrong_types(entry):
    # a float multiplicity used to be truncated by int(), an int label
    # turned into a string by str()
    with pytest.raises(BuildingDataError, match="string label, integer multiplicity"):
        DivisorMultiset((("b", 1),), (entry,), ())


def test_building_data_json_round_trip():
    bd = known_examples("torus")
    assert BuildingData.from_json(bd.to_json()) == bd
