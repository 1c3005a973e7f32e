import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from stratabench import groebner, linalg, s2e
from stratabench.s2e import (Context, GluingParams, IdentityError, S2EError,
                             WeierstrassParams, antidiagonal_kernel, check_identities,
                             conductor_vanishing_basis, factor_basis,
                             generation_check, invariant_basis, s_generators,
                             verify_theorem_relations, _coordinates)
from stratabench.poly import Polynomial, WeightedRing, rename_into, scalar_ratio

P11 = WeierstrassParams(Fraction(1), Fraction(1))
G11 = GluingParams(Fraction(1), Fraction(1))


def ctx11():
    return Context(P11, G11)


def test_params_validation():
    with pytest.raises(S2EError):
        WeierstrassParams(Fraction(-3), Fraction(2))  # 4a^3+27b^2 = 0
    with pytest.raises(S2EError):
        GluingParams(Fraction(0), Fraction(0))
    assert not GluingParams(Fraction(0), Fraction(1)).generic
    assert GluingParams(Fraction(2), Fraction(3)).generic


@pytest.mark.parametrize("value", [0.1, 2.0, True, False])
@pytest.mark.parametrize("cls, slot", [(WeierstrassParams, "a"), (WeierstrassParams, "b"),
                                       (GluingParams, "alpha"), (GluingParams, "beta")])
def test_params_refuse_floats_and_bools(cls, slot, value):
    # 0.1 would be read as 3602879701896397/36028797018963968, and under
    # z_i -> lam*z_i that makes lam about 2^55
    args = dict.fromkeys(cls.__dataclass_fields__, Fraction(2))
    args[slot] = value
    with pytest.raises(S2EError, match=f"^{slot} must be an exact rational"):
        cls(**args)
    args[slot] = "1/10"
    assert getattr(cls(**args), slot) == Fraction(1, 10)


def test_normal_form_rewrites():
    ctx = ctx11()
    R = ctx.ring
    z1, x1, y1 = R.var("z1"), R.var("x1"), R.var("y1")
    z2, x2, y2 = R.var("z2"), R.var("x2"), R.var("y2")
    rhs1 = x1 ** 3 + x1 * z1 ** 4 + z1 ** 6
    rhs2 = x2 ** 3 + x2 * z2 ** 4 + z2 ** 6
    assert ctx.normal_form(y1 * y1) == rhs1
    assert ctx.normal_form(z1 * x2) == z1 * x2
    assert ctx.normal_form(y1 ** 2 * y2 ** 2) == ctx.normal_form(rhs1 * rhs2)


def test_normal_form_idempotent_confluent():
    ctx = ctx11()
    R = ctx.ring
    rng = random.Random(5)
    for _ in range(10):
        e = tuple(rng.randint(0, 3) for _ in range(6))
        p = R.monomial(e, Fraction(rng.randint(-4, 4) or 1))
        nf = ctx.normal_form(p)
        assert ctx.normal_form(nf) == nf
        assert all(ee[2] <= 1 and ee[5] <= 1 for ee in nf.terms)


def _weierstrass_basis(ctx):
    """{y1^2 - rhs1, y2^2 - rhs2} in a block order with y1, y2 first.

    The leading monomials y1^2 and y2^2 are coprime, so the two relations
    are a Groebner basis and the remainder modulo them is unique.
    """
    R = ctx.ring
    names = ("y1", "y2") + tuple(n for n in R.names if n not in ("y1", "y2"))
    block = WeightedRing(names, tuple(R.weights[R.index(n)] for n in names))
    rels = [rename_into(R.var(y) ** 2 - rhs, block)
            for y, rhs in (("y1", ctx.rhs1), ("y2", ctx.rhs2))]
    return groebner.GroebnerBasis(tuple(rels), groebner.MonomialOrder("block-elimination", 2))


NF_PARAMS = WeierstrassParams(Fraction(2, 3), Fraction(-5, 7))
NF_CONTEXTS = [Context(NF_PARAMS, GluingParams(Fraction(3, 2), Fraction(-1, 3))),
               Context(NF_PARAMS, symbolic=True)]
NF_BASES = [_weierstrass_basis(ctx) for ctx in NF_CONTEXTS]
# exponents for z1, x1, y1, z2, x2, y2, al, be (the last two only when symbolic)
EXPONENTS = st.tuples(*(st.integers(0, 5 if i in (2, 5) else 2) for i in range(8)))


@settings(max_examples=60, deadline=None)
@given(symbolic=st.booleans(),
       terms=st.lists(st.tuples(EXPONENTS, st.fractions(max_denominator=5)),
                      min_size=1, max_size=5))
def test_normal_form_is_the_groebner_remainder(symbolic, terms):
    ctx, gb = NF_CONTEXTS[symbolic], NF_BASES[symbolic]
    n = ctx.ring.nvars
    p = Polynomial(ctx.ring, {e[:n]: c for e, c in terms})
    nf = ctx.normal_form(p)
    iy1, iy2 = ctx.ring.index("y1"), ctx.ring.index("y2")
    assert all(e[iy1] <= 1 and e[iy2] <= 1 for e in nf.terms)
    assert nf == rename_into(groebner.normal_form(rename_into(p, gb.generators[0].ring), gb),
                             ctx.ring)


# coprime denominators in a and b: the kernel rescales z_i by lam = 60 * 49
DIFF_PARAMS = WeierstrassParams(Fraction(37, 60), Fraction(-11, 49))
DIFF_CONTEXTS = [Context(DIFF_PARAMS, GluingParams(Fraction(7, 9), Fraction(-5, 4))),
                 Context(DIFF_PARAMS, symbolic=True)]
DIFF_EXPONENTS = st.tuples(*(st.integers(0, 3 if i in (2, 5) else 2) for i in range(8)))
DIFF_TERMS = st.lists(st.tuples(DIFF_EXPONENTS, st.fractions(max_denominator=90)),
                      min_size=1, max_size=3)
# z1^300 and x2^257 need fields wider than 8 bits; y1^21 brings in rhs1^10
WIDE = [((300, 0, 21, 0, 257, 3, 0, 0), Fraction(-7, 13))]


def _reduce_by_definition(ctx, p):
    """Rewrite one y_i^2 of one term as x_i^3 + a*x_i*z_i^4 + b*z_i^6, in
    the coordinates of p, until no y-exponent exceeds 1."""
    R, a, b = ctx.ring, ctx.params.a, ctx.params.b
    rhs = {R.index(y): R.var(x) ** 3 + R.var(x) * R.var(z) ** 4 * a + R.var(z) ** 6 * b
           for z, x, y in (("z1", "x1", "y1"), ("z2", "x2", "y2"))}
    while True:
        hit = next(((e, c, i) for e, c in p.terms.items() for i in rhs if e[i] >= 2), None)
        if hit is None:
            return p
        e, c, i = hit
        lower = e[:i] + (e[i] - 2,) + e[i + 1:]
        p = p - R.monomial(e, c) + R.monomial(lower, c) * rhs[i]


@settings(max_examples=40, deadline=None)
@given(symbolic=st.booleans(), p_terms=DIFF_TERMS, q_terms=DIFF_TERMS)
@example(symbolic=False, p_terms=WIDE, q_terms=[((0,) * 8, Fraction(1))])
@example(symbolic=True, p_terms=WIDE, q_terms=[((1, 0, 1, 0, 0, 1, 2, 1), Fraction(3, 8))])
def test_kernel_matches_the_definition(symbolic, p_terms, q_terms):
    ctx = DIFF_CONTEXTS[symbolic]
    n = ctx.ring.nvars
    p = Polynomial(ctx.ring, {e[:n]: c for e, c in p_terms})
    q = Polynomial(ctx.ring, {e[:n]: c for e, c in q_terms})
    assert ctx.normal_form(p) == _reduce_by_definition(ctx, p)
    assert ctx.nf_mul(p, q) == _reduce_by_definition(ctx, p * q)


def test_factor_basis_dimensions():
    for m in range(1, 9):
        assert len(factor_basis(m)) == m


def test_t_generators_sigma_invariant():
    ctx = ctx11()
    for t in ctx.t_generators():
        assert ctx.swap_factors(t) == t
    t = ctx.t_generators()
    assert ctx.bidegree(t[0]) == (1, 1)
    assert ctx.bidegree(t[4]) == (3, 3)
    assert ctx.bidegree(t[6]) == (4, 4)


def test_degree4_monomial_identity():
    # z1^4 x2^2 + x1^2 z2^4 = t2^2 - 2 t0^2 t1
    ctx = ctx11()
    R = ctx.ring
    z1, x1, z2, x2 = R.var("z1"), R.var("x1"), R.var("z2"), R.var("x2")
    t = ctx.t_generators()
    lhs = z1 ** 4 * x2 ** 2 + x1 ** 2 * z2 ** 4
    assert ctx.normal_form(lhs) == ctx.normal_form(t[2] ** 2 - 2 * t[0] ** 2 * t[1])


def test_invariant_basis_dimensions_and_invariance():
    ctx = ctx11()
    for m in range(1, 7):
        basis = invariant_basis(ctx, m)
        assert len(basis) == m * (m + 1) // 2
        for p in basis:
            assert ctx.swap_factors(p) == p
            assert ctx.bidegree(p) == (m, m)
    assert [p for p in invariant_basis(ctx, 1)] == [ctx.t_generators()[0]]


def _span_equal(ctx, A, B):
    MA = _coordinates([ctx.normal_form(p).terms for p in A + B])
    ra = linalg.rank([row[:len(A)] for row in MA])
    rb = linalg.rank([row[len(A):] for row in MA])
    rab = linalg.rank(MA)
    return ra == rb == rab


def test_antidiagonal_kernel_is_t4_t5():
    rng = random.Random(9)
    for _ in range(10):
        a = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        b = Fraction(rng.randint(-10, 10), rng.randint(1, 5))
        try:
            params = WeierstrassParams(a, b)
        except S2EError:
            continue
        ctx = Context(params, G11)
        ker = antidiagonal_kernel(ctx, 3)
        assert len(ker) == 2
        t = ctx.t_generators()
        assert _span_equal(ctx, ker, [t[4], t[5]])


def test_antidiagonal_restriction_values():
    from stratabench.s2e import _restrict_antidiagonal
    for a, b in ((1, 1), (Fraction(2, 3), Fraction(-5, 7))):
        ctx = Context(WeierstrassParams(a, b), G11)
        t = ctx.t_generators()
        P = ctx._packing(8)

        def restrict(p):
            row, den = P.pack(p)
            return P.unpack(_restrict_antidiagonal(P, row), den)

        assert restrict(t[4]).is_zero()
        assert restrict(t[5]).is_zero()
        R = ctx.ring
        x1, z1 = R.var("x1"), R.var("z1")
        assert restrict(t[3]) == -(x1 ** 3 + x1 * z1 ** 4 * a + z1 ** 6 * b)


def test_conductor_dimensions():
    ctx = ctx11()
    dims = {m: len(conductor_vanishing_basis(ctx, m)) for m in range(2, 6)}
    assert dims == {2: 0, 3: 1, 4: 3, 5: 6}


def test_conductor_m3_is_s4_and_m4_span():
    ctx = ctx11()
    els = ctx.s_elements()
    k3 = conductor_vanishing_basis(ctx, 3)
    assert len(k3) == 1
    assert _span_equal(ctx, k3, [ctx.normal_form(els["s4"])])
    k4 = conductor_vanishing_basis(ctx, 4)
    t0 = ctx.t_generators()[0]
    closed_form = [ctx.normal_form(t0 * els["s4"]), ctx.normal_form(els["l1"]),
                   ctx.normal_form(els["l2"])]
    assert _span_equal(ctx, k4, closed_form)


def test_conductor_refuses_non_generic():
    ctx = Context(P11, GluingParams(Fraction(0), Fraction(1)))
    with pytest.raises(S2EError, match="non-generic"):
        conductor_vanishing_basis(ctx, 3)


def test_s_generators_identities():
    for (a, b, al, be) in ((1, 1, 1, 1), (2, 3, 1, 2), (1, 2, 3, 5)):
        ctx = Context(WeierstrassParams(Fraction(a), Fraction(b)),
                      GluingParams(Fraction(al), Fraction(be)))
        out = s_generators(ctx)
        assert out["identity1_ok"] and out["identity2_ok"]
        assert out["identity1_scalar"] == 0
        assert out == {**ctx.s_elements(), **check_identities(ctx)}
        assert set(check_identities(ctx)) == {"identity1_ok", "identity1_scalar",
                                              "identity2_ok"}


def test_s_generators_symbolic():
    ctx = Context(P11, symbolic=True)
    out = s_generators(ctx)
    assert out["identity1_ok"] and out["identity2_ok"]
    assert out["identity1_scalar"] == 0


def test_theorem_relations_unique_assignment():
    report = verify_theorem_relations(ctx11())
    assert report["succeeding"] == "t-system z=(t3,s4)"
    successes = [r for r in report["assignments"] if r["success"]]
    assert len(successes) == 1
    assert successes[0]["lambda2"] == "1" and successes[0]["mu2"] == "1"


def test_theorem_relations_symbolic():
    ctx = Context(P11, symbolic=True)
    report = verify_theorem_relations(ctx)
    assert report["symbolic"] and report["succeeding"] == "t-system z=(t3,s4)"


@pytest.mark.parametrize("a, b", [(1, 1), (Fraction(2, 3), Fraction(-5, 7))])
def test_theorem_relations_symbolic_report(a, b):
    report = verify_theorem_relations(Context(WeierstrassParams(a, b), symbolic=True))
    assert report == {
        "assignments": [{"assignment": "t-system z=(t3,s4)", "success": True,
                         "reason": "symbolic identity",
                         "lambda2": "1", "mu2": "1", "lambda": "1"}],
        "succeeding": "t-system z=(t3,s4)", "symbolic": True}


def test_theorem_relations_non_generic_rejected():
    ctx = Context(P11, GluingParams(Fraction(1), Fraction(0)))
    with pytest.raises(S2EError, match="non-generic"):
        verify_theorem_relations(ctx)


# -- reference: the theorem search on Polynomials ------------------------------


def _ref_s_elements(ctx):
    """s0..s4, l1 and l2 by Polynomial arithmetic from the closed forms."""
    t0, t1, t2, t3, t4, t5, _ = ctx.t_generators()
    a, b = ctx.params.a, ctx.params.b
    al, be = ctx.alpha, ctx.beta
    s2 = (al * be * (2 * b) - be * be * a) * t0 ** 2 + al * al * b * t2 \
        + (al * al * a + be * be) * t1
    s3 = (al ** 3 * b * b + be ** 3 * b) * t0 ** 3 \
        + (al ** 3 * a * b + al * be * be * (3 * b) - be ** 3 * a) * t0 * t2 \
        + (al ** 3 * a * a + al * al * be * (3 * b)) * t0 * t1 \
        + (-al ** 3 * b + al * al * be * a + be ** 3) * t3
    l1 = (al * b - be * a) * t0 ** 4 + be * t0 ** 2 * t1 - be * t2 ** 2 \
        - al * t1 * t2 - al * t0 * t3
    l2 = be * b * t0 ** 4 + al * a * t0 ** 2 * t1 + al * b * t0 ** 2 * t2 \
        - al * t1 ** 2 - be * t1 * t2 + be * t0 * t3
    return {"s0": t0, "s1": al * t1 + be * t2, "s2": s2, "s3": s3,
            "s4": al * t4 + be * t5, "l1": l1, "l2": l2}


def _ref_b1(X, Y1, Y2, a, b):
    return -(X ** 6 * b * b + X ** 4 * Y1 * a * b + Y1 ** 3 * b + X ** 4 * Y2 * a * a
             - X ** 2 * Y1 * Y2 * (3 * b) + Y1 ** 2 * Y2 * a - X ** 2 * Y2 ** 2 * (2 * a)
             + Y2 ** 3)


def _ref_a2(X, Y1, Y2, al, be):
    return -(X ** 2 * be * be * 2 + Y1 * al * be * 2 + Y2 * al * al * 2)


def _ref_b2(X, Y1, Y2, a, b, al, be):
    return -(X ** 6 * be * be * (2 * b)
             + X ** 4 * Y1 * (al * be * (2 * b) + be * be * a)
             + X ** 2 * Y1 ** 2 * (al * al * b)
             + Y1 ** 3 * be * be
             + X ** 4 * Y2 * (al * al * (-2 * b) + al * be * (4 * a))
             + X ** 2 * Y1 * Y2 * (al * al * a - be * be * 3)
             + Y1 ** 2 * Y2 * (al * be * 2)
             - X ** 2 * Y2 ** 2 * (al * be * 4)
             + Y1 * Y2 ** 2 * al * al)


def _ref_try(ctx, X, Y1, Y2, Z1, z1sq, z2sq):
    """One assignment: the images X, Y1, Y2 of x, y1, y2, the image Z1 of
    z1, and the normal forms of z1^2 and z2^2."""
    nf = ctx.normal_form
    a, b, al, be = ctx.params.a, ctx.params.b, ctx.alpha, ctx.beta
    b1 = nf(_ref_b1(X, Y1, Y2, a, b))
    lam2 = scalar_ratio(-b1, z1sq)
    if lam2 is None or lam2 == 0:
        return {"success": False, "reason": "no z1-rescaling solves r1",
                "lambda2": None, "mu2": None, "lambda": None}
    b2 = nf(_ref_b2(X, Y1, Y2, a, b, al, be))
    cross = nf(X * Z1 * _ref_a2(X, Y1, Y2, al, be))
    M = _coordinates([z2sq.terms, cross.terms, (-b2).terms])
    sol = linalg.solve([row[:2] for row in M], [row[2] for row in M])
    if sol is None:
        return {"success": False, "reason": "r2 has no (mu^2, lambda) solution",
                "lambda2": str(lam2), "mu2": None, "lambda": None}
    mu2, lam = sol
    if mu2 == 0 or lam * lam != lam2:
        return {"success": False, "reason": "r2 solution inconsistent with r1 rescaling",
                "lambda2": str(lam2), "mu2": str(mu2), "lambda": str(lam)}
    ok = (nf(z1sq.scale(lam2) + b1).is_zero()
          and nf(z2sq.scale(mu2) + cross.scale(lam) + b2).is_zero())
    return {"success": ok, "reason": "ok" if ok else "nonzero residual",
            "lambda2": str(lam2), "mu2": str(mu2), "lambda": str(lam)}


def _ref_assignments(ctx):
    """Every assignment of the theorem search, as `verify_theorem_relations`
    reports it for a numeric context."""
    els, t = _ref_s_elements(ctx), ctx.t_generators()
    systems = {"s-system": (els["s0"], els["s1"], els["s2"]), "t-system": (t[0], t[2], t[1])}
    zs = {"s3": els["s3"], "s4": els["s4"], "t3": t[3]}
    results = []
    for label, z1, z2 in (("s-system", "s3", "s4"), ("s-system", "s4", "s3"),
                          ("t-system", "t3", "s4"), ("t-system", "s4", "t3")):
        res = _ref_try(ctx, *systems[label], zs[z1], ctx.normal_form(zs[z1] * zs[z1]),
                       ctx.normal_form(zs[z2] * zs[z2]))
        res["assignment"] = f"{label} z=({z1},{z2})"
        results.append(res)
    return results


def _oracle_contexts():
    """Six seeded numeric contexts, denominators up to 7, and one symbolic."""
    rng = random.Random(17)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))

    contexts = []
    while len(contexts) < 6:
        a, b, alpha, beta = (rational() for _ in range(4))
        if 4 * a ** 3 + 27 * b ** 2 != 0 and alpha != 0 and beta != 0:
            contexts.append(Context(WeierstrassParams(a, b), GluingParams(alpha, beta)))
    return contexts + [Context(WeierstrassParams(Fraction(-7, 4), Fraction(5, 3)),
                               symbolic=True)]


def test_theorem_search_matches_the_polynomial_reference():
    for ctx in _oracle_contexts():
        expected = _ref_assignments(ctx)
        if ctx.symbolic:
            expected = [dict(r, reason="symbolic identity") for r in expected if r["success"]]
        assert verify_theorem_relations(ctx)["assignments"] == expected
        assert ctx.s_elements() == _ref_s_elements(ctx)


def test_assignment_failures_match_the_polynomial_reference():
    # off-model candidates for the t-system reach each way an assignment
    # fails: no r1 rescaling, no r2 solution, and an r2 solution whose
    # lambda does not square to r1's (z1 doubled but not its square)
    ctx = _oracle_contexts()[0]
    t, s4 = ctx.t_generators(), ctx.s_elements()["s4"]
    E = ctx._elements
    P = E.P
    system = s2e._SystemRows(E, *(E.rows[k] for k in ("t0", "t2", "t1")))
    reasons = set()
    for Z1, Zsq, Z2 in ((s4, s4, t[3]), (t[3], t[3], t[3]), (2 * t[3], t[3], s4),
                        (t[3], t[3], s4)):
        expected = _ref_try(ctx, t[0], t[2], t[1], Z1, ctx.normal_form(Zsq * Zsq),
                            ctx.normal_form(Z2 * Z2))
        squares = [P.mul(P.pack(Z), P.pack(Z)) for Z in (Zsq, Z2)]
        assert s2e._try_assignment(P, system, P.pack(Z1), *squares) == expected
        reasons.add(expected["reason"])
    assert len(reasons) == 4


def test_b1_sign_pattern():
    # b1 contains -y2^3
    R = WeightedRing(("x", "y1", "y2"), (1, 2, 2))
    b1 = _ref_b1(R.var("x"), R.var("y1"), R.var("y2"), Fraction(1), Fraction(1))
    assert b1.coeff((0, 0, 3)) == -1


def test_generation_check():
    ctx = ctx11()
    assert generation_check(ctx, 4)
    assert generation_check(ctx, 6)
    t = ctx.t_generators()
    assert not generation_check(ctx, 3, generators=[t[0], t[1], t[2]])
    with pytest.raises(S2EError, match="positive diagonal bidegree"):
        generation_check(ctx, 2, generators=[ctx.ring.one(), t[0]])


def test_symbolic_rejects_conductor():
    ctx = Context(P11, symbolic=True)
    with pytest.raises(S2EError):
        conductor_vanishing_basis(ctx, 3)


def test_conductor_kernel_vanishes_groebner_route():
    # independent oracle: in the affine chart z1 = z2 = 1 the conductor
    # curve is V(f1, f2, s4) minus the antidiagonal {x2 = x1, y2 = -y1};
    # multiplying by x2 - x1 kills the antidiagonal component, so genuine
    # conductor-vanishing sections land in the ideal (f1, f2, s4).
    from stratabench.groebner import buchberger, normal_form
    from stratabench.poly import Polynomial, WeightedRing, rename_into

    ctx = ctx11()
    a, b = ctx.params.a, ctx.params.b
    al, be = ctx.glue.alpha, ctx.glue.beta
    A = WeightedRing(("x1", "y1", "x2", "y2"), (1, 1, 1, 1))
    x1, y1, x2, y2 = (A.var(n) for n in A.names)
    f1 = y1 ** 2 - (x1 ** 3 + x1.scale(a) + A.const(b))
    f2 = y2 ** 2 - (x2 ** 3 + x2.scale(a) + A.const(b))
    s4 = (x1 * y2 + y1 * x2).scale(al) + (y2 + y1).scale(be)
    gb = buchberger([f1, f2, s4])

    def dehom(p):
        sub = {"z1": A.one(), "x1": x1, "y1": y1,
               "z2": A.one(), "x2": x2, "y2": y2}
        return p.substitute(sub)

    g = x2 - x1
    for p in conductor_vanishing_basis(ctx, 4):
        assert normal_form(dehom(p) * g, gb).is_zero()
    # and a section NOT vanishing on the conductor stays outside
    t3 = ctx.t_generators()[3]
    probe = ctx.normal_form(ctx.t_generators()[0] * t3)
    assert not normal_form(dehom(probe) * g, gb).is_zero()


def _rescaled(p, mu):
    """p under z_i -> mu*z_i."""
    return Polynomial(p.ring, {e: c * mu ** (e[0] + e[3]) for e, c in p.terms.items()})


@pytest.mark.parametrize("mu", [Fraction(2), Fraction(1, 3)])
def test_pipeline_is_invariant_under_weighted_rescaling(mu):
    # z_i -> mu*z_i maps the curve of (a, b) onto the curve of
    # (mu^4*a, mu^6*b), t4 to mu*t4 and t5 to mu^3*t5, so the s4 of
    # (alpha, beta) to mu times the s4 of (alpha, mu^2*beta)
    a, b, al, be = Fraction(2, 3), Fraction(-5, 7), Fraction(3, 2), Fraction(-1, 3)
    ctx = Context(WeierstrassParams(a, b), GluingParams(al, be))
    image = Context(WeierstrassParams(mu ** 4 * a, mu ** 6 * b), GluingParams(al, mu ** 2 * be))
    reports = [s2e.pipeline_report(c.params, c.glue) for c in (ctx, image)]
    for key in ("invariant_dims", "conductor_dims", "antidiagonal_kernel_dim_3",
                "generation_upto_6", "identity1_ok", "identity1_scalar", "identity2_ok"):
        assert reports[0][key] == reports[1][key]
    assert reports[0]["theorem"]["succeeding"] == reports[1]["theorem"]["succeeding"]
    for m in range(2, 6):
        assert _span_equal(image, [_rescaled(p, mu) for p in conductor_vanishing_basis(ctx, m)],
                           conductor_vanishing_basis(image, m))
    assert _span_equal(image, [_rescaled(p, mu) for p in antidiagonal_kernel(ctx, 3)],
                       antidiagonal_kernel(image, 3))


def test_enumeration_deterministic():
    import json as _json
    from stratabench.gluing import builtin_config, enumerate_gluings
    config, sym = builtin_config("two-conics")
    a = [o.to_json() for o in enumerate_gluings(config, sym)]
    b = [o.to_json() for o in enumerate_gluings(config, sym)]
    assert _json.dumps(a, sort_keys=True) == _json.dumps(b, sort_keys=True)


def test_pipeline_builds_generators_once(monkeypatch):
    # a rebuild hands out new objects, so distinct ids count builds
    seen = {"t": [], "rows": [], "identities": []}
    t_gens, identities = Context.t_generators, s2e.check_identities

    def record(kind, value, probe):
        seen[kind].append(probe(value))
        return value

    class Elements(s2e._Elements):
        def __init__(self, ctx):
            super().__init__(ctx)
            record("rows", self, lambda E: E)

    monkeypatch.setattr(Context, "t_generators",
                        lambda self: record("t", t_gens(self), lambda t: t))
    monkeypatch.setattr(s2e, "_Elements", Elements)
    monkeypatch.setattr(s2e, "check_identities",
                        lambda ctx: record("identities", identities(ctx),
                                           lambda d: d["identity1_scalar"]))
    # the report reads only the identity keys, so no s-element is unpacked
    monkeypatch.setattr(Context, "s_elements", lambda self: pytest.fail("s_elements called"))
    s2e.pipeline_report(P11, G11)
    assert {k: len({id(v) for v in vs}) for k, vs in seen.items()} == {
        "t": 1, "rows": 1, "identities": 1}
    assert len(seen["rows"]) == 1 and len(seen["identities"]) == 2


def test_failed_identity_raises_on_every_call(monkeypatch):
    class Broken(s2e._Elements):
        def __init__(self, ctx):
            super().__init__(ctx)
            s0, mul = self.rows["s0"], self.P.mul
            self.rows["s3"] = s2e._lin([(1, self.rows["s3"]), (1, mul(s0, mul(s0, s0)))])

    monkeypatch.setattr(s2e, "_Elements", Broken)
    ctx = Context(P11, G11)
    for _ in range(2):
        with pytest.raises(IdentityError, match="identity II") as failure:
            verify_theorem_relations(ctx)
        # the residual of identity II is -t0 * s0^3 = -t0^4
        assert failure.value.residual == -ctx.t_generators()[0] ** 4
    monkeypatch.undo()
    assert s_generators(Context(P11, G11))["identity2_ok"]


P_PIN = WeierstrassParams(Fraction(2, 3), Fraction(-5, 7))


def test_conductor_m5_rref_work_is_pinned(monkeypatch):
    # The m = 5 conductor system of (2/3, -5/7, 1, 1), 63 x 30, takes exactly
    # 130 rref row updates; a change of pivoting or elimination shows here.
    from stratabench import BudgetExceeded
    ctx = Context(P_PIN, G11)
    t4, s4 = ctx.t_generators()[4], ctx.s_elements()["s4"]
    basis = invariant_basis(ctx, 5)
    M = _coordinates([ctx.nf_mul(p, t4).terms for p in basis]
                     + [ctx.nf_mul(p, -s4).terms for p in basis])
    assert (len(M), len(M[0])) == (63, 30)
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "130")
    _, pivots = linalg.rref(M)
    assert pivots == list(range(16)) + [17, 18, 19, 20, 22, 23, 24, 26]
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "129")
    with pytest.raises(BudgetExceeded, match="^linalg.rref: 130 steps exceed the step budget of 129;"):
        linalg.rref(M)


def test_conductor_m5_pipeline_rref_work_is_pinned(monkeypatch):
    # the same 130 row updates on the path the pipeline takes, through nullspace
    from stratabench import BudgetExceeded
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "130")
    assert len(conductor_vanishing_basis(Context(P_PIN, G11), 5)) == 6
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "129")
    with pytest.raises(BudgetExceeded, match="^linalg.rref: 130 steps exceed the step budget of 129;"):
        conductor_vanishing_basis(Context(P_PIN, G11), 5)


def test_generation_rank_work_is_pinned(monkeypatch):
    # generation_check ranks the product rows themselves, their sorted packed
    # monomials as columns; the costliest rank up to degree 6 takes 84 row
    # updates, so a change of pivoting or elimination shows here
    from stratabench import BudgetExceeded
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "84")
    assert generation_check(Context(P_PIN, G11), 6)
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "83")
    with pytest.raises(BudgetExceeded, match="^linalg.rref: 84 steps exceed the step budget of 83;"):
        generation_check(Context(P_PIN, G11), 6)


def test_degrees_past_the_former_ceilings(monkeypatch):
    # antidiagonal_kernel stopped at m = 6 and generation_check at upto = 6;
    # both size their packing from the degree, and the budget bounds the work
    from stratabench import BudgetExceeded
    ctx = Context(P_PIN, G11)
    assert len(antidiagonal_kernel(ctx, 8)) == 27  # (m + 1)(m - 2)/2 on this tuple
    assert generation_check(ctx, 8)
    with pytest.raises(S2EError, match="m must be at least 1"):
        antidiagonal_kernel(ctx, 0)
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "1000")
    with pytest.raises(BudgetExceeded, match="^linalg.rref: 1001 steps exceed the step budget of 1000;"):
        generation_check(Context(P_PIN, G11), 12)


def test_pipeline_normal_form_calls_are_bounded(monkeypatch):
    # generation_check builds each monomial product in t0..t6 once, from a
    # stored product of lower degree: 64 normal forms for upto = 6, not 179.
    # Every normal form, of a Polynomial or of a row, enters the one kernel.
    calls = []
    reduce = s2e._Packing.reduce

    def counted(self, row, by=None):
        calls.append(row)
        return reduce(self, row, by)

    monkeypatch.setattr(s2e._Packing, "reduce", counted)
    generation_check(Context(P_PIN, G11), 6)
    assert len(calls) == 64
    calls.clear()
    s2e.pipeline_report(P_PIN, G11)
    assert len(calls) == 224
    # every product between the t-generators and the report is a kernel
    # call: 33 build the rows, 10 the two identities, and the theorem search
    # takes 43, building b1 once per generator system, a2 and b2 only for
    # the system that passes r1, and each z-square once
    ctx = Context(P_PIN, symbolic=True)
    ctx.t_generators()
    products = []
    mul = Polynomial.__mul__

    def multiplied(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", multiplied)
    monkeypatch.setattr(Polynomial, "__rmul__", multiplied)
    calls.clear()
    verify_theorem_relations(ctx)
    assert len(calls) == 86
    assert products == []


def _library_digest(seed=16, count=8, top=60, den=60):
    """sha256 over the `to_json` of `antidiagonal_kernel` (m = 1..6) and
    `conductor_vanishing_basis` (m = 2..5) for `count` seeded tuples.

    The first tuple has integral a and b, so lam = 1; the others have
    coprime denominators above 1 in a and b, up to `den`.
    """
    import hashlib
    import json

    from stratabench.poly import to_json

    rng = random.Random(seed)

    def rational(d=den):
        return Fraction(rng.randint(-top, top), rng.randint(1, d))

    h = hashlib.sha256()
    for k in range(count):
        while True:
            a, b = rational(1 if k == 0 else den), rational(1 if k == 0 else den)
            if 4 * a ** 3 + 27 * b ** 2 != 0 and (k == 0 or gcd(
                    a.denominator, b.denominator) == 1 < min(a.denominator, b.denominator)):
                break
        alpha = beta = 0
        while alpha == 0 or beta == 0:
            alpha, beta = rational(), rational()
        ctx = Context(WeierstrassParams(a, b), GluingParams(alpha, beta))
        report = {"params": [str(a), str(b), str(alpha), str(beta)],
                  "antidiagonal": {m: [to_json(p) for p in antidiagonal_kernel(ctx, m)]
                                   for m in range(1, 7)},
                  "conductor": {m: [to_json(p) for p in conductor_vanishing_basis(ctx, m)]
                                for m in range(2, 6)}}
        h.update(json.dumps(report, sort_keys=True).encode())
    return h.hexdigest()


# recorded before invariant rows moved to their true scale (no unscaling of
# kernel vectors): the antidiagonal at every m, not only m = 3 as in the
# `s2e verify` digests, and the conductor bases
GOLDEN_LIBRARY_SHA256 = "527358bbaad2c59e75eb0a62066aa26ff2e6889e2300a62b0cb5a6d1d8e57c66"


def test_s2e_library_golden_digest():
    assert _library_digest() == GOLDEN_LIBRARY_SHA256


def test_s2e_evidence_golden_digest_wide_denominators():
    # the argv list and digest live in the golden evidence corpus; this name
    # keeps the wide-denominator `s2e verify` check beside the S2E tests
    from test_evidence_corpus import CORPUS, GOLDEN

    name = "s2e verify: 10 wide-denominator tuples and 2 symbolic"
    assert CORPUS[name]() == GOLDEN[name]
