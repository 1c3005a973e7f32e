import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from stratabench import BudgetExceeded, linalg
from stratabench.groebner import (GREVLEX, MonomialOrder, _Packing,
                                  buchberger, eliminate, exact_divide,
                                  leading_monomial, normal_form, poly_gcd,
                                  projective_empty, resultant, spolynomial)
from stratabench.poly import (Polynomial, PolynomialError, WeightedRing, rename_into,
                              weighted_exponents)

R3 = WeightedRing(("x", "y", "z"), (1, 1, 1))
R1 = WeightedRing(("x",), (1,))


def test_principal_ideal():
    x = R1.var("x")
    gb = buchberger([x])
    assert list(gb) == [x]


def test_two_linear_generators_reduced_form():
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    gb = buchberger([x - y, y - z])
    assert set(gb.generators) == {x - z, y - z}


def test_monomial_ideal_unchanged():
    x, y = R3.var("x"), R3.var("y")
    gens = [x * x, x * y, y * y]
    gb = buchberger(gens)
    assert set(gb.generators) == set(gens)


def test_spolynomials_reduce_to_zero():
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    for gens in ([x * y - z * z, x * x - y * z],
                 [x ** 3 - 2 * x * y, x * x * y - 2 * y * y + x],
                 [x + y + z, x * y + y * z + z * x, x * y * z - 1]):
        gb = buchberger(gens)
        for i, f in enumerate(gb):
            for g in gb.generators[i + 1:]:
                assert normal_form(spolynomial(f, g, gb.order), gb).is_zero()


def test_normal_form_examples():
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    gb = buchberger([x ** 3 - 2 * x * y, x * x * y - 2 * y * y + x])
    for g in gb:
        assert normal_form(g, gb).is_zero()
    gb2 = buchberger([x - y])
    assert normal_form(x * x, gb2) == y * y
    gb3 = buchberger([x, y, z])
    assert normal_form(R3.one(), gb3) == R3.one()


def test_normal_form_is_exact_against_a_non_groebner_basis():
    # [2xy - 3z^2, 3x^2 - yz] is not a Groebner basis.  By hand, in grevlex:
    # x^2y/5 + x^2 -> (x/10)*g1 leaves 3/10*xz^2 + x^2 -> (1/3)*g2 leaves
    # 3/10*xz^2 + 1/3*yz.  The remainder is not monic and mixes two scales,
    # so a remainder that is right only up to a constant factor fails here.
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    g1, g2 = 2 * x * y - 3 * z * z, 3 * x * x - y * z
    p = (x * x * y).scale(Fraction(1, 5)) + x * x
    r = normal_form(p, [g1, g2])
    assert r == (x * z * z).scale(Fraction(3, 10)) + (y * z).scale(Fraction(1, 3))
    assert p - r == x.scale(Fraction(1, 10)) * g1 + g2.scale(Fraction(1, 3))


def test_normal_form_idempotent():
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    gb = buchberger([x * y - z * z, x * x - y * z])
    rng = random.Random(3)
    for _ in range(10):
        p = Polynomial(R3, {
            (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)):
                Fraction(rng.randint(-5, 5)) for _ in range(4)})
        r = normal_form(p, gb)
        assert normal_form(r, gb) == r


def test_normal_form_against_a_basis_repeats_the_generators_answer():
    # a GroebnerBasis brings its packed rows along; the answer is the one
    # the same generators give as a plain list, call after call
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    rng = random.Random(8)
    for gens, order in (([x * y - z * z, x * x - y * z], GREVLEX),
                        ([x - y * y, y * z - 2, z ** 3 - x * y],
                         MonomialOrder("block-elimination", split=1))):
        gb = buchberger(gens, order)
        for _ in range(10):
            p = Polynomial(R3, {
                (rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)):
                    Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)})
            first = normal_form(p, gb)
            assert normal_form(p, gb) == first
            assert normal_form(p, list(gb), order) == first
    # a polynomial too large for the basis's fields gets wider ones
    big = x ** 300 * y
    assert normal_form(big, gb) == normal_form(big, list(gb), gb.order)


def test_linear_membership_agrees_with_gaussian_elimination():
    rng = random.Random(11)
    names = ("x", "y", "z", "w")
    R = WeightedRing(names, (1, 1, 1, 1))
    for _ in range(10):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in names] for _ in range(2)]
        gens = [sum((R.var(n).scale(c) for n, c in zip(names, row)), R.zero())
                for row in rows]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens)
        probe_vec = [Fraction(rng.randint(-3, 3)) for _ in names]
        probe = sum((R.var(n).scale(c) for n, c in zip(names, probe_vec)), R.zero())
        base_rank = linalg.rank([r for r in rows if any(r)])
        in_span = linalg.rank([r for r in rows if any(r)] + [probe_vec]) == base_rank
        assert normal_form(probe, gb).is_zero() == in_span


def test_eliminate_parabola():
    R = WeightedRing(("u", "X", "Y"), (1, 1, 1))
    u, X, Y = R.var("u"), R.var("X"), R.var("Y")
    out = eliminate([X - u, Y - u * u], {"u"})
    keep = WeightedRing(("X", "Y"), (1, 1))
    assert out == [keep.var("Y") - keep.var("X") ** 2] or \
        out == [keep.var("X") ** 2 - keep.var("Y")]


def test_eliminate_unit_denominator():
    R = WeightedRing(("u", "v"), (1, 1))
    out = eliminate([R.var("u") * R.var("v") - 1], {"v"})
    assert out == []


def test_eliminate_commutes_with_evaluation():
    # points on the twisted parametrization satisfy the eliminated relations
    R = WeightedRing(("t", "X", "Y", "Z"), (1, 1, 1, 1))
    t, X, Y, Z = (R.var(n) for n in R.names)
    gens = [X - t, Y - t ** 2, Z - t ** 3]
    out = eliminate(gens, {"t"})
    assert out
    for tv in (Fraction(2), Fraction(-1, 3), Fraction(5, 7)):
        point = {"X": tv, "Y": tv ** 2, "Z": tv ** 3}
        for g in out:
            assert g.evaluate(point) == 0


def test_eliminate_all_variables_rejected():
    with pytest.raises(PolynomialError):
        eliminate([R3.var("x")], {"x", "y", "z"})


def test_eliminate_and_exact_divide_refuse_mixed_rings():
    # eliminate once renamed every generator into the first one's ring by
    # name (x^2 - u with x of weight 2 became x^2 - u of weight 1), and
    # exact_divide packed g's exponents with f's ring
    A, B = WeightedRing(("u", "x"), (1, 1)), WeightedRing(("u", "x"), (1, 2))
    big = WeightedRing(("u", "x", "y"), (1, 1, 1))
    for gens in ([A.var("x") - A.var("u") ** 2, B.var("x") ** 2 - B.var("u")],
                 [big.var("y") - big.var("u"), A.var("x") - A.var("u") ** 2],
                 [A.var("x") - A.var("u") ** 2, big.var("y") - big.var("u")]):
        with pytest.raises(PolynomialError, match="mixed rings"):
            eliminate(gens, {"u"})
    xy, yx = WeightedRing(("x", "y"), (1, 1)), WeightedRing(("y", "x"), (1, 1))
    with pytest.raises(PolynomialError, match="mixed rings"):
        exact_divide(xy.var("x") * xy.var("y") + xy.var("y") ** 2, yx.var("x"))


def test_gcd_examples():
    x, y = R3.var("x"), R3.var("y")
    g = poly_gcd((x - y) * (x + y), (x + y) ** 2)
    assert g == x + y
    assert poly_gcd(x, y) == R3.one()


def test_gcd_divides_and_is_divided():
    rng = random.Random(5)
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    atoms = [x + y, x - z, y + 2 * z, x + y + z]
    for _ in range(6):
        common = atoms[rng.randrange(len(atoms))]
        f = common * atoms[rng.randrange(len(atoms))]
        g = common * atoms[rng.randrange(len(atoms))]
        d = poly_gcd(f, g)
        # d divides both inputs exactly
        exact_divide(f, d)
        exact_divide(g, d)
        # the known common divisor divides d
        exact_divide(d, common)


def test_projective_empty_examples():
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    assert projective_empty([x, y, z]) is True
    assert projective_empty([x, y]) is False
    assert projective_empty([x, y ** 3, y * z * z]) is False


def test_projective_empty_unit_ideal():
    # V(1) is empty: the reduced basis {1} has the zeroth power of every variable
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    assert projective_empty([R3.one()]) is True
    assert projective_empty([x, R3.one()]) is True
    assert projective_empty([x * y - z * z, R3.const(3)]) is True


def test_projective_empty_requires_unweighted_homogeneous():
    R = WeightedRing(("x", "y"), (1, 2))
    with pytest.raises(PolynomialError):
        projective_empty([R.var("x")])
    x, y = R3.var("x"), R3.var("y")
    with pytest.raises(PolynomialError):
        projective_empty([x + x * y])


def test_resultant_examples():
    R = WeightedRing(("v",), (1,))
    v = R.var("v")
    assert resultant(v * v - 2, v - 1, "v") == R.const(-1)

    S = WeightedRing(("a", "b", "c", "d", "v"), (1, 1, 1, 1, 1))
    a, b, c, d, v = (S.var(n) for n in S.names)
    assert resultant(a * v + b, c * v + d, "v") == a * d - b * c

    with pytest.raises(PolynomialError):
        resultant(a, c * v + d, "v")


def test_resultant_vs_evaluation():
    # res(f, v - r) = (-1)^deg(f) * f(r)
    R = WeightedRing(("v",), (1,))
    v = R.var("v")
    f = v ** 3 - 2 * v + 5
    for r in (Fraction(2), Fraction(-1, 2)):
        g = v - R.const(r)
        assert resultant(f, g, "v") == R.const(-f.evaluate({"v": r}))


def test_budget_exhaustion_raises(monkeypatch):
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "3")
    with pytest.raises(BudgetExceeded,
                       match="^groebner.buchberger: 4 steps exceed the step budget of 3;"):
        buchberger([x ** 3 - 2 * x * y + z, x * x * y - 2 * y * y + x,
                    x * z - y ** 2])
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "1")
    with pytest.raises(BudgetExceeded,
                       match="^groebner.normal_form: 2 steps exceed the step budget of 1;"):
        normal_form(x ** 3, [x - y])


def test_determinism():
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    gens = [x * y - z * z, x * x - y * z, y ** 3 - x * z * z]
    g1 = buchberger(gens)
    g2 = buchberger(list(reversed(gens)))
    assert list(g1) == list(g2)


def test_block_order_elimination_property():
    # any monomial containing an eliminated (block-1) variable exceeds
    # any monomial in kept variables only
    order = MonomialOrder("block-elimination", split=1)
    w = (1, 1, 1)
    eliminated = (1, 0, 0)
    for kept in ((0, 5, 0), (0, 0, 7), (0, 3, 3)):
        assert order.key(eliminated, w) > order.key(kept, w)


def test_reduced_basis_shape():
    x, y, z = R3.var("x"), R3.var("y"), R3.var("z")
    gb = buchberger([x + y + z, x * y + y * z + z * x, x * y * z - 1])
    keys = []
    for g in gb:
        lm = leading_monomial(g, gb.order)
        assert g.terms[lm] == 1  # monic
        keys.append(gb.order.key(lm, R3.weights))
        # fully reduced: no other generator's leading monomial divides
        # any monomial of g except its own leading term
        for h in gb:
            if h is g:
                continue
            lmh = leading_monomial(h, gb.order)
            for e in g.terms:
                if e != lm:
                    assert not all(a <= b for a, b in zip(lmh, e))
    assert keys == sorted(keys, reverse=True)


def test_implicitize_elimination_step_count_is_pinned(monkeypatch):
    # The (2, 3) graph ideal of implicitize takes exactly 172 steps (S-pairs
    # plus division steps) on the graded block order; a change of pair
    # selection, reduction, interreduction or order shows here.
    from stratabench.implicitize import GRAPH_RING, ParametrizationInput, build_parametrization
    from stratabench.poly import rename_into

    params = build_parametrization(ParametrizationInput(Fraction(2), Fraction(3)))
    gens = [GRAPH_RING.var(n) - rename_into(p, GRAPH_RING) for n, p in zip("xyz", params)]
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "172")
    assert len(eliminate(gens, {"u", "v"})) == 1
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "171")
    with pytest.raises(BudgetExceeded):
        eliminate(gens, {"u", "v"})


@st.composite
def _elimination_cases(draw):
    """(gens, s): one to three generators in a ring of weights 1..4 whose
    first s of at most five variables are eliminated.  Each generator is
    weighted-homogeneous of degree 1..6, and now and then a constant is
    one more, unless the case is drawn inhomogeneous: then the first
    generator gains a term of lower degree."""
    s = draw(st.integers(1, 3))
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=s + 1, max_size=min(s + 2, 5))))
    ring = WeightedRing(tuple(f"v{i}" for i in range(len(weights))), weights)
    degrees = [d for d in range(1, 7) if weighted_exponents(weights, d)]
    coeffs = st.integers(-3, 3).filter(bool).map(Fraction)

    def form(degree):
        exps = st.sampled_from(weighted_exponents(weights, degree))
        return draw(st.dictionaries(exps, coeffs, min_size=1, max_size=3))

    gens = [form(draw(st.sampled_from(degrees))) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.integers(0, 5)) == 5:
        gens.append(form(0))
    lower = [0] + [d for d in degrees if d < ring.wdeg(next(iter(gens[0])))]
    if draw(st.booleans()):
        gens[0].update(form(draw(st.sampled_from(lower))))
    return [Polynomial(ring, terms) for terms in gens], s


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_elimination_cases())
def test_eliminate_matches_the_block_order(case):
    # eliminate runs weighted-homogeneous input on the graded block order;
    # the reference is the block order itself, filtered to the kept ring
    gens, s = case
    ring = gens[0].ring
    drop = ring.names[:s]
    keep = WeightedRing(ring.names[s:], ring.weights[s:])
    reference = buchberger(gens, MonomialOrder("block-elimination", s))
    expected = [rename_into(g, keep) for g in reference
                if not set(g.variables_used()) & set(drop)]
    assert eliminate(gens, drop) == expected


def test_grevlex_step_counts_are_pinned(monkeypatch):
    # Two grevlex computations of the surface-models workload, pinned like
    # the block-order count above: projective_empty on the divisors of the
    # bidouble example Z4 takes 17 steps, and poly_gcd(b1, b2) of a canring
    # model whose x = 0 resultant vanishes takes 9.
    from stratabench.bidouble import known_examples
    from stratabench.canring import XY_RING, CanonicalRingModel

    divisors = list(known_examples("Z4").divisors())
    x, y1, y2 = XY_RING.var("x"), XY_RING.var("y1"), XY_RING.var("y2")
    model = CanonicalRingModel(XY_RING.zero(), XY_RING.zero(),
                               y1 * y1 * y2 + x ** 6, y1 ** 3 + x ** 4 * y1)
    for steps, run, answer in ((17, lambda: projective_empty(divisors), True),
                               (9, lambda: poly_gcd(model.b1, model.b2), model.ring.one())):
        monkeypatch.setenv("STRATABENCH_STEP_BUDGET", str(steps))
        assert run() == answer
        monkeypatch.setenv("STRATABENCH_STEP_BUDGET", str(steps - 1))
        with pytest.raises(BudgetExceeded):
            run()


def test_the_engine_builds_only_the_polynomials_it_returns(monkeypatch):
    # the reduced basis stays integer rows: eliminate converts the one
    # element of the (2, 3) graph ideal's basis in the kept variables (of
    # 17), and projective_empty on the divisors of Z4 converts none (of 5)
    from stratabench import groebner
    from stratabench.bidouble import known_examples
    from stratabench.implicitize import GRAPH_RING, ParametrizationInput, build_parametrization

    built = []

    def counting_collect(ring, pairs):
        built.append(ring)
        return collect(ring, pairs)

    collect = groebner.collect
    monkeypatch.setattr(groebner, "collect", counting_collect)
    params = build_parametrization(ParametrizationInput(Fraction(2), Fraction(3)))
    gens = [GRAPH_RING.var(n) - rename_into(p, GRAPH_RING) for n, p in zip("xyz", params)]
    assert len(eliminate(gens, {"u", "v"})) == len(built) == 1
    built.clear()
    assert projective_empty(list(known_examples("Z4").divisors())) is True
    assert built == []


def test_the_engine_interreduces_only_the_rows_it_returns(monkeypatch):
    # after the S-pair loop, which reduces by one growing list of divisors,
    # each interreduced row is reduced by a list of its own: buchberger
    # interreduces every minimal row, eliminate only the 1 in the kept
    # variables of the (2, 3) graph ideal's 17, and projective_empty none
    # of the 5 on the divisors of Z4
    from stratabench import groebner
    from stratabench.bidouble import known_examples
    from stratabench.implicitize import GRAPH_RING, ParametrizationInput, build_parametrization

    calls = []

    def recording_reduce(work, divisors, budget):
        calls.append(divisors)
        return reduce(work, divisors, budget)

    def interreduced(run):
        calls.clear()
        answer = run()
        return answer, sum(divisors is not calls[0] for divisors in calls)

    reduce = groebner._reduce
    monkeypatch.setattr(groebner, "_reduce", recording_reduce)
    params = build_parametrization(ParametrizationInput(Fraction(2), Fraction(3)))
    gens = [GRAPH_RING.var(n) - rename_into(p, GRAPH_RING) for n, p in zip("xyz", params)]
    # GRAPH_RING puts u and v first, and the graph ideal is homogeneous
    full, n = interreduced(lambda: buchberger(gens, MonomialOrder("graded-block-elimination", 2)))
    assert len(full) == n == 17
    kept, n = interreduced(lambda: eliminate(gens, {"u", "v"}))
    assert len(kept) == n == 1
    divisors = list(known_examples("Z4").divisors())
    full, n = interreduced(lambda: buchberger(divisors))
    assert len(full) == n == 5
    assert interreduced(lambda: projective_empty(divisors)) == (True, 0)


@st.composite
def _packing_cases(draw):
    n = draw(st.integers(1, 5))
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(("weighted-graded-revlex", "block-elimination",
                                 "graded-block-elimination")))
    order = MonomialOrder(kind, split=0 if kind == GREVLEX.kind else draw(st.integers(1, n + 1)))
    exps = st.tuples(*[st.integers(0, 12)] * n)
    return order, weights, draw(exps), draw(exps)


@settings(max_examples=60, deadline=None)
@given(_packing_cases())
# the block key puts u above v^2, the total degree below
@example((MonomialOrder("graded-block-elimination", 1), (1, 1), (1, 0), (0, 2)))
def test_packed_monomials_follow_the_order_keys(case):
    order, weights, a, b = case
    packing = _Packing(order, weights, 11)  # fields hold 1023 > 2 * 5 * 4 * 12
    pa, pb = packing.pack(a), packing.pack(b)
    ka, kb = order.key(a, weights), order.key(b, weights)
    assert (pa < pb) == (ka < kb) and (pa == pb) == (a == b)
    assert packing.pack(tuple(map(sum, zip(a, b)))) == pa + pb
    assert packing.unpack(pa) == a and packing.unpack(pb) == b
    assert packing.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
    assert not pa & packing.guard


@settings(max_examples=60, deadline=None)
@given(_packing_cases())
def test_packed_sums_overflow_into_a_guard_bit(case):
    # fields of 5 bits hold 0..15 below the guard; every field of a block
    # is at most its weighted degree, which is one of the fields, and so
    # is the total degree of a graded block order
    order, weights, a, b = case
    packing = _Packing(order, weights, 5)
    n, split = len(weights), min(order.split, len(weights)) or len(weights)

    def degrees(e):
        blocks = [sum(x * w for x, w in zip(e[lo:hi], weights[lo:hi]))
                  for lo, hi in ((0, split), (split, n))]
        return blocks + [sum(blocks)] * (order.kind == "graded-block-elimination")

    if max(degrees(a) + degrees(b)) > 15:
        return
    total = packing.pack(a) + packing.pack(b)
    assert bool(total & packing.guard) == (max(degrees(tuple(map(sum, zip(a, b))))) > 15)


def test_huge_exponents_stay_exact():
    R2 = WeightedRing(("x", "y"), (1, 1))
    y = R2.var("y")
    f = R2.monomial((2 ** 64, 0)) - y
    gb = buchberger([f, y * y - 1])
    assert set(gb.generators) == {f, y * y - 1}
    assert normal_form(R2.monomial((2 ** 65, 0)), gb) == R2.one()


def test_elimination_widens_fields_that_overflow():
    # u = x^N and u^8 = y give y = x^(8N).  The fields are sized for the
    # inputs' degree N = 2^40, and x^(8N) overflows them, so the
    # computation runs again with fields twice as wide.
    n = 2 ** 40
    R = WeightedRing(("u", "x", "y"), (1, 1, 1))
    u, y = R.var("u"), R.var("y")
    out = eliminate([u - R.monomial((0, n, 0)), u ** 8 - y], {"u"})
    keep = WeightedRing(("x", "y"), (1, 1))
    assert out == [keep.monomial((8 * n, 0)) - keep.var("y")]
