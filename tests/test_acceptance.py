"""Acceptance suite: one criterion per test, printing a PASS line each.

Every comparison is exact (rational arithmetic, no tolerances); the
stated runtime ceilings are asserted alongside the results.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from stratabench import linalg
from stratabench.canring import (ci_hilbert_series, rr_prediction,
                                 bicanonical_fiber_count, random_model)
from stratabench.fibration import (BIELLIPTIC_TABLE, bielliptic_admissible,
                                   chi_bookkeeping, hirzebruch_branch_solve,
                                   solve_multiple_fibres)
from stratabench.gluing import (ADMISSIBLE, EXCLUDED_ETALE, builtin_config,
                                enumerate_gluings, make_involution)
from stratabench.groebner import buchberger, normal_form, poly_gcd, spolynomial, \
    exact_divide
from stratabench.implicitize import (ParametrizationInput, implicitize,
                                     closed_form_quartic)
from stratabench.bidouble import DivisorMultiset, normalize_building_data
from stratabench.poly import WeightedRing
from stratabench.s2e import (Context, GluingParams, WeierstrassParams,
                             antidiagonal_kernel, conductor_vanishing_basis,
                             invariant_basis, s_generators,
                             verify_theorem_relations, _coordinates)


def report(n, label, elapsed, limit):
    print(f"ACCEPTANCE {n}: PASS  {label}  ({elapsed:.2f}s < {limit}s)")
    assert elapsed < limit


def test_criterion_1_hilbert_riemann_roch():
    t0 = time.time()
    series = ci_hilbert_series((1, 2, 2, 3, 3), (6, 6), 12)
    for m in range(1, 13):
        assert series[m] == rr_prediction(1, 2, 1, m)
    assert series[2:7] == [3, 5, 8, 12, 17]
    report(1, "Hilbert series equals Riemann-Roch for m = 1..12", time.time() - t0, 1)


def test_criterion_2_del_pezzo_counts():
    t0 = time.time()
    full = ci_hilbert_series((1, 1, 2, 3), (6,), 8)
    for m in range(1, 9):
        assert full[m] == m * (m + 1) // 2 + 1
    restricted = ci_hilbert_series((1, 1, 3), (6,), 8)
    for m in range(2, 9):
        assert restricted[m] == 2 * m - 1
    report(2, "del Pezzo ring counts and genus-2 restriction", time.time() - t0, 1)


def test_criterion_3_implicitization():
    t0 = time.time()
    quartic, ver = implicitize(ParametrizationInput(Fraction(2), Fraction(3)))
    from stratabench.bidouble import PLANE
    x, y, z = PLANE.var("x"), PLANE.var("y"), PLANE.var("z")
    golden = (21 * x ** 2 * y ** 2 + 40 * x ** 2 * y * z - 25 * x * y ** 2 * z
              - 4 * x ** 2 * z ** 2 + 5 * x * y * z ** 2 + 6 * y ** 2 * z ** 2)
    assert quartic.poly == golden

    rng = random.Random(321)
    done = 0
    while done < 20:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        try:
            inp = ParametrizationInput(a, b)
        except Exception:
            continue
        q, v = implicitize(inp)
        assert q.poly == closed_form_quartic(a, b).poly
        assert v["pullback_zero"]
        assert all(v["nodes"].values())
        done += 1
    report(3, "golden quartic plus 20 random (a,b) with node and pullback checks",
           time.time() - t0, 30)


def test_criterion_4_s2e_theorem():
    t0 = time.time()
    rng = random.Random(99)
    tuples = []
    while len(tuples) < 10:
        vals = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)]
        try:
            params = WeierstrassParams(vals[0], vals[1])
            glue = GluingParams(vals[2], vals[3])
        except Exception:
            continue
        if not glue.generic:
            continue
        tuples.append((params, glue))

    worst = 0.0
    for params, glue in tuples:
        t1 = time.time()
        ctx = Context(params, glue)
        for m in range(1, 7):
            assert len(invariant_basis(ctx, m)) == m * (m + 1) // 2
        ker = antidiagonal_kernel(ctx, 3)
        t = ctx.t_generators()
        M = _coordinates([ctx.normal_form(p).terms for p in ker + [t[4], t[5]]])
        assert len(ker) == 2
        assert linalg.rank(M) == 2  # kernel = span{t4, t5}
        for m in range(2, 6):
            assert len(conductor_vanishing_basis(ctx, m)) == m * (m - 3) // 2 + 1
        gens = s_generators(ctx)
        assert gens["identity1_ok"] and gens["identity2_ok"]
        thm = verify_theorem_relations(ctx)
        assert sum(1 for r in thm["assignments"] if r["success"]) == 1
        worst = max(worst, time.time() - t1)

    # symbolic run: alpha, beta as ring variables of bidegree zero
    sym = Context(WeierstrassParams(Fraction(1), Fraction(1)), symbolic=True)
    gens = s_generators(sym)
    assert gens["identity1_ok"] and gens["identity2_ok"]
    thm = verify_theorem_relations(sym)
    assert thm["succeeding"] == "t-system z=(t3,s4)"
    assert worst < 60
    report(4, f"S2E pipeline on 10 random tuples (worst {worst:.2f}s/tuple) "
              "plus the symbolic run", time.time() - t0, 600)


def test_criterion_5_gluing_enumeration():
    t0 = time.time()
    config, sym = builtin_config("four-lines")
    orbits = enumerate_gluings(config, sym)
    assert len(orbits) == 3
    partitions = sorted(tuple(sorted(map(tuple, o.cusp_partition.classes)))
                        for o in orbits)
    expected_41 = (("P(12)",), ("P(13)", "P(14)", "P(23)", "P(24)"), ("P(34)",))
    assert sum(1 for p in partitions if tuple(sorted(p)) ==
               tuple(sorted(expected_41))) == 2
    assert sorted(o.cusp_partition.sizes() for o in orbits) == \
        [(3, 2, 1), (4, 1, 1), (4, 1, 1)]

    config, sym = builtin_config("cubic-line")
    assert enumerate_gluings(config, sym) == []

    config, sym = builtin_config("two-conics")
    orbits = enumerate_gluings(config, sym)
    flagged = [o for o in orbits if o.cusp_partition.sizes() == (2, 2)]
    assert len(flagged) == 1 and flagged[0].feasibility == EXCLUDED_ETALE
    others = [o for o in orbits if o is not flagged[0]]
    assert {o.cusp_partition.sizes() for o in others} == {(4,), (3, 1)}
    assert all(o.feasibility == ADMISSIBLE for o in others)

    # chi_check accepts exactly the expected (mu_bar, rho, mu1) triples
    expected_triples = {
        "four-lines": {(6, 0, 3)},
        "two-conics": {(4, 4, 1), (4, 0, 2)},
        "conic-two-lines": {(5, 2, 2)},
        "three-nodal": {(3, 2, 1)},
    }
    for name, want in expected_triples.items():
        config, sym = builtin_config(name)
        got = {(o.chi["mu_bar"], o.chi["rho"], o.chi["mu1"])
               for o in enumerate_gluings(config, sym)}
        assert got == want, (name, got)
    report(5, "four-lines/cubic-line/two-conics enumerations and chi triples",
           time.time() - t0, 5)


def test_criterion_6_fibration_numerics():
    t0 = time.time()
    assert solve_multiple_fibres(2, 3, 12) == [(2, (2, 2, 2))]
    admissible = [r.type_index for r in BIELLIPTIC_TABLE
                  if bielliptic_admissible(r)[0]]
    assert admissible == [1, 3, 5, 7]
    assert hirzebruch_branch_solve()["k"] == 10
    # the seven normal rows of the stratum table
    assert chi_bookkeeping(2, [])["matching_types"] == ["general type"]
    assert "minimal properly elliptic" in chi_bookkeeping(2, [1])["matching_types"]
    assert "Enriques" in chi_bookkeeping(2, [2])["matching_types"]
    both = chi_bookkeeping(2, [1, 1])["matching_types"]
    assert "torus" in both and "bielliptic" in both
    assert chi_bookkeeping(2, [3])["matching_types"] == ["rational"]
    assert "ruled over elliptic curve" in chi_bookkeeping(2, [1, 2])["matching_types"]
    assert not chi_bookkeeping(2, [5])["valid"]
    report(6, "multiple fibres, bielliptic types, Hirzebruch class, chi table",
           time.time() - t0, 1)


def test_criterion_7_quadruple_cover():
    t0 = time.time()
    rng = random.Random(77)
    for _ in range(5):
        model = random_model(rng)
        hits = 0
        for _ in range(5):
            count = None
            for attempt in range(4):  # at most 3 resamples
                base = (Fraction(1), Fraction(rng.randint(-20, 20)),
                        Fraction(rng.randint(-20, 20)))
                n = bicanonical_fiber_count(model, base)
                if n == 4:
                    count = n
                    break
            assert count == 4
            hits += 1
        assert hits == 5
    report(7, "fiber count 4 on 5 random models x 5 base points",
           time.time() - t0, 30)


def test_criterion_8_property_suites():
    t0 = time.time()
    R3 = WeightedRing(("x", "y", "z"), (1, 1, 1))
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")

    # Groebner self-checks
    gb = buchberger([x + y + z, x * y + y * z + z * x, x * y * z - 1])
    for i, f in enumerate(gb):
        for g in gb.generators[i + 1:]:
            assert normal_form(spolynomial(f, g, gb.order), gb).is_zero()
    for gen in (x + y + z, x * y + y * z + z * x, x * y * z - 1):
        assert normal_form(gen, gb).is_zero()
    p = x ** 3 * y - z + 1
    assert normal_form(normal_form(p, gb), gb) == normal_form(p, gb)

    # gcd divides-both / is-divided-by on factored inputs
    rng = random.Random(15)
    atoms = [x + y, y - z, x + 2 * z, x - y + z]
    for _ in range(5):
        c = atoms[rng.randrange(4)]
        f = c * atoms[rng.randrange(4)]
        g = c * atoms[rng.randrange(4)]
        d = poly_gcd(f, g)
        exact_divide(f, d)
        exact_divide(g, d)
        exact_divide(d, c)

    # normalisation idempotence and postconditions
    for _ in range(10):
        lists = []
        for _ in range(3):
            chosen = rng.sample(["a", "b", "c", "d"], rng.randint(0, 4))
            lists.append(tuple((l, rng.randint(0, 3)) for l in chosen))
        out = normalize_building_data(DivisorMultiset(*lists))
        assert all(m == 1 for part in out.lists() for m in part.values())
        sup = [set(part) for part in out.lists()]
        assert not (sup[0] & sup[1] or sup[0] & sup[2] or sup[1] & sup[2])
        assert normalize_building_data(out) == out

    # the known two-step trace
    d = DivisorMultiset((("line", 1), ("E", 1)),
                        (("L1", 1), ("L2", 1), ("L3", 1), ("E", 3)),
                        (("cubic", 1),))
    assert normalize_building_data(d) == DivisorMultiset(
        (("line", 1),), (("L1", 1), ("L2", 1), ("L3", 1)),
        (("E", 1), ("cubic", 1)))

    # union-find order independence
    from stratabench.gluing import MarkedConfig, cusp_classes
    config, _ = builtin_config("four-lines")
    inv = make_involution(
        config, (1, 0, 3, 2),
        {"P12": "P23", "P23": "P12", "P13": "P24", "P24": "P13",
         "P14": "P21", "P21": "P14", "P31": "P42", "P42": "P31",
         "P32": "P41", "P41": "P32", "P34": "P43", "P43": "P34"}, {})
    shuffled = MarkedConfig(config.components, tuple(reversed(config.matching)),
                            tuple(reversed(config.node_names)))
    assert set(map(frozenset, cusp_classes(config, inv).classes)) == \
        set(map(frozenset, cusp_classes(shuffled, inv).classes))

    # byte-identical CLI reports
    cmd = [sys.executable, "-m", "stratabench", "glue", "--config", "four-lines"]
    out1 = subprocess.run(cmd, capture_output=True, text=True)
    out2 = subprocess.run(cmd, capture_output=True, text=True)
    assert out1.returncode == 0 and out1.stdout == out2.stdout

    report(8, "Groebner/gcd/normalisation/union-find/CLI property suites",
           time.time() - t0, 60)
