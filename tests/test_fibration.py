from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from stratabench import fibration
from stratabench.fibration import (BIELLIPTIC_TABLE, BiellipticRow,
                                   FibrationData, FibrationError,
                                   bielliptic_admissible, chi_bookkeeping,
                                   hirzebruch_branch_solve, k_dot_multisection,
                                   plurigenus, solve_multiple_fibres,
                                   stratum_catalog, f1_intersection, C0, FIB)


def test_k_dot_multisection_examples():
    assert k_dot_multisection(FibrationData(0, 1, (2, 2, 2), 2)) == 1
    assert k_dot_multisection(FibrationData(1, 1, (), 1)) == 1
    assert k_dot_multisection(FibrationData(0, 1, (), 1)) == -1


def test_k_dot_multisection_linearity():
    for k in (1, 2, 3, 5):
        fd = FibrationData(0, 1, (2, 3), k)
        assert k_dot_multisection(fd) == k * k_dot_multisection(
            FibrationData(0, 1, (2, 3), 1))
    # additive over the multiplicity list
    base = k_dot_multisection(FibrationData(0, 1, (), 2))
    with_m = k_dot_multisection(FibrationData(0, 1, (2, 3), 2))
    assert with_m - base == Fraction(2, 2) + Fraction(2 * 2, 3)


def test_plurigenus_examples():
    typeA = FibrationData(0, 1, (2, 2, 2), 2)
    assert plurigenus(typeA, 2) == 2
    assert plurigenus(typeA, 1) == 0
    typeB = FibrationData(1, 1, (), 1)
    assert plurigenus(typeB, 1) == 1


def test_plurigenus_growth():
    # without multiple fibres the degree grows linearly, so h^0 is monotone
    for fd in (FibrationData(1, 1, (), 1), FibrationData(0, 2, (), 1)):
        values = [plurigenus(fd, m) for m in range(1, 10)]
        assert values == sorted(values)
    # with multiple fibres the plurigenera oscillate (P2 = 2 > P3 = 1 for
    # the three-double-fibre case) but are monotone along parity classes
    typeA = FibrationData(0, 1, (2, 2, 2), 2)
    values = [plurigenus(typeA, m) for m in range(1, 12)]
    assert values[0:4] == [0, 2, 1, 3]
    assert all(values[i] <= values[i + 2] for i in range(len(values) - 2))


def test_plurigenus_torsion_flag():
    trivial = FibrationData(1, 0, (), 1, L_torsion=False)
    torsion = FibrationData(1, 0, (), 1, L_torsion=True)
    assert plurigenus(trivial, 1) == 1
    assert plurigenus(torsion, 1) == 0


def test_solve_multiple_fibres_examples():
    assert solve_multiple_fibres(2, 3, 12) == [(2, (2, 2, 2))]
    sols = solve_multiple_fibres(1, 3, 6)
    assert (1, (2, 3, 6)) in sols and (1, (3, 3, 3)) in sols
    assert solve_multiple_fibres(2, 1, 12) == []


def _fraction_solve(k_min, r_fixed=None, bound=12):
    """The multiple-fibre search summing Fraction(m - 1, m) per tuple."""
    out = set()
    for r in ([r_fixed] if r_fixed is not None else range(5)):
        for ms in combinations_with_replacement(range(2, bound + 1), r):
            s = -1 + sum(Fraction(m - 1, m) for m in ms)
            if s > 0 and (1 / s).denominator == 1 and k_min <= 1 / s <= bound:
                out.add((int(1 / s), ms))
    return sorted(out)


@pytest.mark.parametrize("args", [(1,), (2,), (1, 3), (1, 4), (1, None, 20), (2, 3, 12)],
                         ids=str)
def test_solve_multiple_fibres_matches_the_fraction_search(args):
    assert solve_multiple_fibres(*args) == _fraction_solve(*args)


def test_solver_stable_in_bound():
    assert solve_multiple_fibres(2, 3, 12) == solve_multiple_fibres(2, 3, 20)


def test_bielliptic_admissible():
    verdicts = {row.type_index: bielliptic_admissible(row)[0]
                for row in BIELLIPTIC_TABLE}
    assert [i for i, v in verdicts.items() if v] == [1, 3, 5, 7]
    ok, witness = bielliptic_admissible(BIELLIPTIC_TABLE[0])
    assert ok and witness == (1, 1)
    ok, witness = bielliptic_admissible(BIELLIPTIC_TABLE[1])
    assert not ok and witness is None
    ok, _ = bielliptic_admissible(BIELLIPTIC_TABLE[6])
    assert ok
    with pytest.raises(FibrationError):
        bielliptic_admissible(BiellipticRow(8, "Z5", 5, (5, 5)))


def test_bielliptic_table_shape():
    assert [r.multiplicities for r in BIELLIPTIC_TABLE[:2]] == [(2, 2, 2, 2)] * 2
    assert BIELLIPTIC_TABLE[6].multiplicities == (2, 3, 6)
    assert BIELLIPTIC_TABLE[6].mu == 6


def test_hirzebruch_branch_solve():
    out = hirzebruch_branch_solve()
    assert out["k"] == 10
    assert out["rewrite_identity_ok"]
    assert out["disjoint_section_check"]


def test_branch_solve_checks_its_solution(monkeypatch):
    # with F^2 = 1 chi is quadratic in k: the linear solve gives k = -4,
    # where chi is 6, and the check raises (it survives python -O)
    monkeypatch.setattr(fibration, "f1_intersection", lambda x, y: x[1] * y[1])
    with pytest.raises(FibrationError, match="no integral solution"):
        hirzebruch_branch_solve()


def test_lattice_pairing():
    assert f1_intersection(C0, C0) == -1
    assert f1_intersection(C0, FIB) == f1_intersection(FIB, C0) == 1
    assert f1_intersection(FIB, FIB) == 0
    assert f1_intersection((1, 1), C0) == 0
    # bilinear: (2C0 + 3F).(C0 - F) = -2 - 2 + 3
    assert f1_intersection((2, 3), (1, -1)) == -1


def test_chi_bookkeeping():
    r1 = chi_bookkeeping(2, [1])
    assert r1["chi_resolution"] == 1 and "minimal properly elliptic" in r1["matching_types"]
    r2 = chi_bookkeeping(2, [1, 1])
    assert r2["chi_resolution"] == 0
    assert "torus" in r2["matching_types"] and "bielliptic" in r2["matching_types"]
    r3 = chi_bookkeeping(2, [5])
    assert not r3["valid"]
    r4 = chi_bookkeeping(2, [2])
    assert "Enriques" in r4["matching_types"]
    r5 = chi_bookkeeping(2, [])
    assert r5["matching_types"] == ["general type"]
    r6 = chi_bookkeeping(2, [4])
    assert r6["valid"] and r6["matching_types"] == ["rational"]


def reference_matches(degrees):
    """The stratum rows a sorted degree tuple matches, as the per-type
    branches of earlier versions of `chi_bookkeeping` listed them."""
    r = len(degrees)
    matches = []
    if r == 0:
        matches.append("general type")
    elif r == 1:
        if degrees[0] == 1:
            matches.append("minimal properly elliptic")
        if degrees[0] == 2:
            matches.append("Enriques")
        matches.append("rational")
    elif r == 2:
        if degrees == (1, 1):
            matches.extend(["torus", "bielliptic"])
        matches.append("ruled over elliptic curve")
    return matches


def test_chi_bookkeeping_reads_the_stratum_table_as_the_branches_did():
    for r in range(4):
        for degrees in combinations_with_replacement(range(1, 7), r):
            matches = reference_matches(degrees)
            degree_ok = all(d <= 4 for d in degrees)
            assert chi_bookkeeping(2, degrees) == {
                "r": r, "chi_resolution": 2 - r, "degrees": list(degrees),
                "degree_bound_ok": degree_ok, "matching_types": matches,
                "valid": degree_ok and bool(matches)}, degrees


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", Fraction(2)])
def test_fibration_data_refuses_non_integers(value):
    # a float multiplicity used to be truncated: (2.5, 3) read as (2, 3)
    for args in ((0, 2, (value, 3)), (value, 2, (2, 3)), (0, value, (2, 3)),
                 (0, 2, (2, 3), value)):
        with pytest.raises(FibrationError, match="must be integers"):
            FibrationData(*args)


@pytest.mark.parametrize("value", [1.5, 1.0, True, "1"])
def test_chi_bookkeeping_refuses_non_integers(value):
    with pytest.raises(FibrationError, match="must be integers"):
        chi_bookkeeping(2, [value])
    with pytest.raises(FibrationError, match="must be integers"):
        chi_bookkeeping(value, [1])
    with pytest.raises(FibrationError, match="must be integers"):
        chi_bookkeeping(2, [1, value])


def test_stratum_catalog():
    cat = stratum_catalog()
    assert cat["normal_strata_count"] == 7
    assert cat["bielliptic_strata_dimensions"] == [1, 1, 1, 2]
    assert cat["del_pezzo_stratum"]["dimension"] == 10
    assert cat["del_pezzo_stratum"]["parameter_count"] == 12
    assert cat["moduli_dimension"] == 18
    assert len(cat["open"]) == 1
