"""Differential test of the Groebner engine against sympy (skipped without it)."""

import random
from fractions import Fraction

import pytest

from stratabench.groebner import (GREVLEX, MonomialOrder, buchberger, eliminate,
                                  normal_form, poly_gcd, projective_empty, resultant)
from stratabench.poly import Polynomial, WeightedRing, scalar_ratio, weighted_exponents

sp = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402
from sympy.polys.subresultants_qq_zz import sylvester  # noqa: E402

NAMES = ("x", "y", "z")


def _small(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))


def _high_height(rng):
    """n/d with 1 <= |n|, d <= 10**6, so reductions must scale and remove content."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))


def _random_poly(rng, ring, max_deg=3, homogeneous=False, coeff=_small):
    """Two to four terms with coefficients from `coeff`, degree <= max_deg."""
    top = rng.randint(1, max_deg)
    terms = {}
    for _ in range(rng.randint(2, 4)):
        e = [0] * ring.nvars
        for _ in range(top if homogeneous else rng.randint(0, top)):
            e[rng.randrange(ring.nvars)] += 1
        terms[tuple(e)] = coeff(rng)
    return Polynomial(ring, terms)


def _random_ideal(rng, ring):
    """Between two and nvars generators; about half the ideals are homogeneous."""
    homogeneous = rng.random() < 0.5
    gens = [_random_poly(rng, ring, homogeneous=homogeneous)
            for _ in range(rng.randint(2, ring.nvars))]
    return [g for g in gens if not g.is_zero()]


def _to_sympy(p, symbols):
    return sp.Poly.from_dict(
        {e: sp.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
        *symbols, domain="QQ")


def _terms(q):
    return {e: Fraction(int(c.p), int(c.q)) for e, c in q.terms() if c != 0}


def _sympy_ring(rng):
    n = rng.choice((2, 3, 3))
    ring = WeightedRing(NAMES[:n], (1,) * n)
    return ring, sp.symbols(" ".join(ring.names), seq=True)


def test_buchberger_and_normal_form_match_sympy():
    rng = random.Random(4021)
    for _ in range(30):
        ring, symbols = _sympy_ring(rng)
        gens = _random_ideal(rng, ring)
        if not gens:
            continue
        ours = buchberger(gens, GREVLEX)
        theirs = sp.groebner([_to_sympy(g, symbols) for g in gens], *symbols,
                             order="grevlex", domain="QQ")
        assert [g.terms for g in ours] == [_terms(q) for q in theirs.polys]
        for _ in range(3):
            p = _random_poly(rng, ring, max_deg=4)
            _, remainder = theirs.reduce(_to_sympy(p, symbols).as_expr())
            expected = _terms(sp.Poly(remainder, *symbols, domain="QQ"))
            assert normal_form(p, ours).terms == expected


# the block order with the first variable eliminated: grevlex on each block
BLOCK = MonomialOrder("block-elimination", split=1)
SYMPY_BLOCK = ProductOrder((grevlex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))


def test_high_height_coefficients_match_sympy():
    # coefficients with numerators and denominators up to 10**6, under grevlex
    # and the block order: the integer rows are scaled by every reduction step
    # and divided by their content, and the answers must still be exact
    rng = random.Random(6061)
    for k in range(10):
        ring, symbols = _sympy_ring(rng)

        def generator():
            g = _random_poly(rng, ring, homogeneous=True, coeff=_high_height)
            return g if k % 2 == 0 else g + _random_poly(rng, ring, max_deg=1, coeff=_high_height)

        gens = [generator() for _ in range(2)]
        for order, sympy_order in ((GREVLEX, "grevlex"), (BLOCK, SYMPY_BLOCK)):
            ours = buchberger(gens, order)
            theirs = sp.groebner([_to_sympy(g, symbols) for g in gens], *symbols,
                                 order=sympy_order, domain="QQ")
            assert [g.terms for g in ours] == [_terms(q) for q in theirs.polys]
            p = _random_poly(rng, ring, coeff=_high_height)
            _, remainder = theirs.reduce(_to_sympy(p, symbols).as_expr())
            assert normal_form(p, ours).terms == _terms(sp.Poly(remainder, *symbols, domain="QQ"))


def _random_form(rng, ring, max_deg=4):
    """Two to four terms of one weighted degree from 1 to max_deg."""
    degree = rng.choice([d for d in range(1, max_deg + 1) if weighted_exponents(ring.weights, d)])
    exps = weighted_exponents(ring.weights, degree)
    return Polynomial(ring, {rng.choice(exps): _small(rng) for _ in range(rng.randint(2, 4))})


def _elimination_cases():
    """Twelve inhomogeneous pairs of weights (1, 1, 1), then twelve
    weighted-homogeneous pairs of weights in 1..3, which `eliminate` runs on
    the graded block order."""
    rng = random.Random(1988)
    ring = WeightedRing(NAMES, (1, 1, 1))
    for _ in range(12):
        yield [_random_poly(rng, ring, max_deg=2) for _ in range(2)]
    rng = random.Random(2024)
    for _ in range(12):
        ring = WeightedRing(NAMES, tuple(rng.randint(1, 3) for _ in NAMES))
        gens = [_random_form(rng, ring) for _ in range(2)]
        assert all(g.is_homogeneous() for g in gens)
        yield gens


def test_eliminate_matches_sympy_lex_elimination_ideal():
    x, y, z = sp.symbols("x y z")
    keep_symbols = (y, z)
    for gens in _elimination_cases():
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        ours = eliminate(gens, {"x"})
        lex = sp.groebner([_to_sympy(g, (x, y, z)) for g in gens], x, y, z,
                          order="lex", domain="QQ")
        # by the elimination theorem this part is a lex basis of the elimination
        # ideal, so reducing by it decides membership
        part = [q.as_expr() for q in lex.polys if q.degree(x) == 0]
        ours_sp = [_to_sympy(g, keep_symbols).as_expr() for g in ours]
        if not part:
            assert ours == []
            continue
        assert ours
        for g in ours_sp:
            assert sp.reduced(g, part, *keep_symbols, order="lex", domain="QQ")[1] == 0
        ours_gb = sp.groebner(ours_sp, *keep_symbols, order="grevlex", domain="QQ")
        for q in part:
            assert ours_gb.contains(q)


def _from_sympy(q, ring):
    return Polynomial(ring, _terms(q))


def test_projective_empty_matches_sympy():
    # a line and two cubics in P^2 with coefficients in -2..2; every third
    # triple is forced through the point (1 : a : b), so both answers occur.
    # A homogeneous ideal has no projective zero when its affine cone is the
    # origin alone: sympy's zero-dimensional, or its unit ideal, which sympy
    # does not call zero-dimensional
    rng = random.Random(1981)
    ring = WeightedRing(NAMES, (1, 1, 1))
    symbols = sp.symbols("x y z")
    answers = []
    while len(answers) < 60:
        point = {"x": 1, "y": rng.randint(-2, 2), "z": rng.randint(-2, 2)}
        triple = []
        for degree in (1, 3, 3):
            f = Polynomial(ring, {e: rng.randint(-2, 2)
                                  for e in weighted_exponents(ring.weights, degree)})
            if len(answers) % 3 == 0:
                f -= ring.var("x") ** degree * f.evaluate(point)
            triple.append(f)
        if any(f.is_zero() for f in triple):
            continue
        theirs = sp.groebner([_to_sympy(f, symbols) for f in triple], *symbols,
                             order="grevlex", domain="QQ")
        empty = list(theirs.exprs) == [1] or theirs.is_zero_dimensional
        assert projective_empty(triple) is empty
        answers.append(empty)
    assert 0 < answers.count(True) < 60


def test_resultant_matches_sympy():
    rng = random.Random(1853)
    for _ in range(40):
        ring, symbols = _sympy_ring(rng)
        f, g = (_random_poly(rng, ring) for _ in range(2))
        name = ring.names[0]
        if f.degree_in(name) < 1 or g.degree_in(name) < 1:
            continue
        # sympy's own resultant() swaps its arguments when deg f < deg g, which
        # flips the sign when both degrees are odd; the Sylvester determinant
        # is the definition both sides share
        det = sylvester(_to_sympy(f, symbols).as_expr(), _to_sympy(g, symbols).as_expr(),
                        symbols[0]).det()
        theirs = sp.Poly(sp.expand(det), *symbols, domain="QQ")
        assert resultant(f, g, name) == _from_sympy(theirs, ring)


def test_poly_gcd_matches_sympy():
    rng = random.Random(1876)
    for _ in range(12):
        ring, symbols = _sympy_ring(rng)
        common = _random_poly(rng, ring, max_deg=2)
        f, g = (common * _random_poly(rng, ring, max_deg=2) for _ in range(2))
        if f.is_zero() or g.is_zero():
            continue
        ours = poly_gcd(f, g)
        theirs = _from_sympy(sp.gcd(_to_sympy(f, symbols), _to_sympy(g, symbols)), ring)
        # both are normalised, by different rules; they agree up to a scalar
        assert scalar_ratio(ours, theirs) not in (None, 0)
