import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from stratabench import groebner, linalg
from stratabench.s2e import (Context, GluingParams, IdentityError, S2EError,
                             WeierstrassParams, antidiagonal_kernel,
                             conductor_vanishing_basis, factor_basis,
                             generation_check, invariant_basis, s_generators,
                             verify_theorem_relations, _b1_poly, _coordinates)
from stratabench.poly import Polynomial, WeightedRing, rename_into

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
    assert all(e[ctx.iy1] <= 1 and e[ctx.iy2] <= 1 for e in nf.terms)
    assert nf == rename_into(groebner.normal_form(rename_into(p, gb.generators[0].ring), gb),
                             ctx.ring)


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
    MA, _ = _coordinates([ctx.normal_form(p) for p in A + B])
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
    ctx = ctx11()
    t = ctx.t_generators()
    from stratabench.s2e import _restrict_antidiagonal
    assert _restrict_antidiagonal(ctx, t[4]).is_zero()
    assert _restrict_antidiagonal(ctx, t[5]).is_zero()
    r3 = _restrict_antidiagonal(ctx, t[3])
    R = ctx.ring
    x1, z1 = R.var("x1"), R.var("z1")
    assert r3 == -(x1 ** 3 + x1 * z1 ** 4 + z1 ** 6)


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


def test_b1_sign_pattern():
    # b1 contains -y2^3
    R = WeightedRing(("x", "y1", "y2"), (1, 2, 2))
    b1 = _b1_poly(R.var("x"), R.var("y1"), R.var("y2"), Fraction(1), Fraction(1))
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


def test_enumeration_deterministic():
    import json as _json
    from stratabench.gluing import builtin_config, enumerate_gluings
    config, sym = builtin_config("two-conics")
    a = [o.to_json() for o in enumerate_gluings(config, sym)]
    b = [o.to_json() for o in enumerate_gluings(config, sym)]
    assert _json.dumps(a, sort_keys=True) == _json.dumps(b, sort_keys=True)


def test_pipeline_builds_generators_once(monkeypatch):
    # a rebuild hands out new Polynomial objects, so distinct ids count builds
    from stratabench import s2e
    seen = {"t": [], "s": [], "identities": []}
    t_gens, s_els, s_gens = Context.t_generators, Context.s_elements, s2e.s_generators

    def record(kind, value, probe):
        seen[kind].append(probe(value))
        return value

    monkeypatch.setattr(Context, "t_generators",
                        lambda self: record("t", t_gens(self), lambda t: t))
    monkeypatch.setattr(Context, "s_elements",
                        lambda self: record("s", s_els(self), lambda d: d["s4"]))
    monkeypatch.setattr(s2e, "s_generators",
                        lambda ctx: record("identities", s_gens(ctx),
                                           lambda d: d["identity1_scalar"]))
    s2e.pipeline_report(P11, G11)
    assert {k: len({id(v) for v in vs}) for k, vs in seen.items()} == {
        "t": 1, "s": 1, "identities": 1}
    assert len(seen["identities"]) == 2


def test_failed_identity_raises_on_every_call():
    class Broken(Context):
        def s_elements(self):
            els = super().s_elements()
            els["s3"] = els["s3"] + els["s0"] ** 3
            return els

    ctx = Broken(P11, G11)
    for _ in range(2):
        with pytest.raises(IdentityError, match="identity II"):
            verify_theorem_relations(ctx)
    assert s_generators(Context(P11, G11))["identity2_ok"]


P_PIN = WeierstrassParams(Fraction(2, 3), Fraction(-5, 7))


def test_conductor_m5_rref_work_is_pinned(monkeypatch):
    # The m = 5 conductor system of (2/3, -5/7, 1, 1), 63 x 30, takes exactly
    # 130 rref row updates; a change of pivoting or elimination shows here.
    from stratabench import BudgetExceeded
    ctx = Context(P_PIN, G11)
    t4, s4 = ctx.t_generators()[4], ctx.s_elements()["s4"]
    basis = invariant_basis(ctx, 5)
    M, _ = _coordinates([ctx.nf_mul(p, t4) for p in basis]
                        + [ctx.nf_mul(p, -s4) for p in basis])
    assert (len(M), len(M[0])) == (63, 30)
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "130")
    _, pivots = linalg.rref(M)
    assert pivots == list(range(16)) + [17, 18, 19, 20, 22, 23, 24, 26]
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "129")
    with pytest.raises(BudgetExceeded, match="^rref: spent the step budget of 129;"):
        linalg.rref(M)


def test_conductor_m5_pipeline_rref_work_is_pinned(monkeypatch):
    # the same 130 row updates on the path the pipeline takes, through nullspace
    from stratabench import BudgetExceeded
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "130")
    assert len(conductor_vanishing_basis(Context(P_PIN, G11), 5)) == 6
    monkeypatch.setenv("STRATABENCH_STEP_BUDGET", "129")
    with pytest.raises(BudgetExceeded, match="^rref: spent the step budget of 129;"):
        conductor_vanishing_basis(Context(P_PIN, G11), 5)


def test_pipeline_normal_form_calls_are_bounded(monkeypatch):
    # generation_check builds each monomial product in t0..t6 once, from a
    # stored product of lower degree: 64 normal forms for upto = 6, not 179
    from stratabench import s2e
    calls = []
    normal_form = Context.normal_form

    def counted(self, p):
        calls.append(p)
        return normal_form(self, p)

    monkeypatch.setattr(Context, "normal_form", counted)
    generation_check(Context(P_PIN, G11), 6)
    assert len(calls) == 64
    calls.clear()
    s2e.pipeline_report(P_PIN, G11)
    assert len(calls) == 151
    # the theorem search builds b1 once per generator system and each
    # z-square once: 10 normal forms, plus 3 for the two identities
    calls.clear()
    verify_theorem_relations(Context(P_PIN, symbolic=True))
    assert len(calls) == 13


def _evidence_digest(seed=14, count=12, symbolic=3):
    """sha256 over the exit code, stdout and stderr of `s2e verify` for
    `count` seeded numeric tuples and `symbolic` seeded `--symbolic` runs."""
    import contextlib
    import hashlib
    import io

    from stratabench.cli import dispatch

    rng = random.Random(seed)

    def rational():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 3))

    def params():
        while True:
            a, b = rational(), rational()
            if 4 * a ** 3 + 27 * b ** 2 != 0:
                return a, b

    argvs = []
    for _ in range(count):
        (a, b), alpha, beta = params(), 0, 0
        while alpha == 0 or beta == 0:
            alpha, beta = rational(), rational()
        argvs.append(["s2e", "verify", f"--a={a}", f"--b={b}",
                      f"--alpha={alpha}", f"--beta={beta}"])
    for _ in range(symbolic):
        a, b = params()
        argvs.append(["s2e", "verify", f"--a={a}", f"--b={b}", "--symbolic"])
    h = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = dispatch(argv)
        h.update(f"{' '.join(argv)} {rc}\n{out.getvalue()}{err.getvalue()}".encode())
    return h.hexdigest()


# recorded before linalg moved to one integer elimination kernel
GOLDEN_EVIDENCE_SHA256 = "c1d7369ed76dd7ab1a74184e6877d7144c2ec27a76b331964e15875fcdf8c330"


def test_s2e_evidence_golden_digest():
    # any changed byte of the report, or of an error message, changes the digest
    assert _evidence_digest() == GOLDEN_EVIDENCE_SHA256
