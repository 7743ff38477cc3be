"""Cross-validation against sympy's sparse polynomial rings.

For a certified Groebner basis over a field, the fully reduced remainder
is unique, so our normal form must coincide with sympy's multivariate
remainder against the same generators.  Taylor shifts are likewise checked
against substitution in sympy, and ``certify_groebner``'s verdict against
sympy's reduced Groebner basis of the family.  sympy is a test-only
oracle, not a dependency of the library.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.groebnertools import groebner

from combnull import (
    GF,
    QQ,
    InfiniteComplement,
    MonicFamily,
    MultiplicityTable,
    MultisetGrid,
    Poly,
    certify_groebner,
    grid_staircase_count,
    level_basis,
    level_normal_form,
    multiplicity_family,
    reduce,
    taylor_shift,
)
from conftest import random_poly, variable


def to_sympy(f, ring_sym, gens):
    out = ring_sym.zero
    for alpha, c in f.terms.items():
        term = ring_sym.ground_new(int(c) if not isinstance(c, Fraction) else c)
        for g, e in zip(gens, alpha):
            term = term * g**e
        out = out + term
    return out


def from_sympy(poly, ring, nvars):
    terms = {}
    for monom, coeff in poly.terms():
        value = int(coeff) if ring is not QQ else Fraction(str(coeff))
        terms[tuple(monom)] = ring.canon(value)
    return Poly(ring, nvars, terms)


@pytest.mark.parametrize(
    "ring,domain",
    [(GF(5), sympy.FF(5)), (QQ, sympy.QQ)],
)
def test_normal_form_matches_sympy_remainder(rng, ring, domain):
    ring_sym, x1, x2 = sympy.ring("x1,x2", domain, "grevlex")
    gens = (x1, x2)
    grid = MultisetGrid.build(ring, [[0, 1], [0, 1, 2]], [{0: 2, 1: 1}, None])
    for t in (1, 2, 3):
        basis = level_basis(grid, t)
        sym_basis = [to_sympy(g, ring_sym, gens) for g in basis.members]
        for _ in range(40):
            f = random_poly(rng, ring, 2, max_deg=5, max_terms=8)
            ours = level_normal_form(f, grid, t)
            theirs = to_sympy(f, ring_sym, gens).rem(sym_basis)
            assert ours == from_sympy(theirs, ring, 2), (t, str(f))


def test_reduction_identity_matches_sympy_arithmetic(rng):
    # the division identity recomputed entirely inside sympy
    ring_sym, x1, x2 = sympy.ring("x1,x2", sympy.QQ, "grevlex")
    gens = (x1, x2)
    grid = MultisetGrid.build(QQ, [[0, 1], [Fraction(1, 2), 1]])
    basis = level_basis(grid, 1)
    for _ in range(20):
        f = random_poly(rng, QQ, 2, max_deg=4)
        out = reduce(f, basis)
        lhs = to_sympy(f, ring_sym, gens)
        rhs = to_sympy(out.remainder, ring_sym, gens)
        for q, g in zip(out.quotients, basis.members):
            rhs = rhs + to_sympy(q, ring_sym, gens) * to_sympy(g, ring_sym, gens)
        assert lhs == rhs


def test_taylor_shift_matches_sympy_substitution(rng):
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    syms = (x1, x2, x3)
    for _ in range(20):
        n = rng.randint(1, 3)
        f = random_poly(rng, QQ, n, max_deg=4)
        u = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        shifted = taylor_shift(f, u)

        expr = sympy.Integer(0)
        for alpha, c in f.terms.items():
            term = sympy.Rational(c)
            for s, e in zip(syms, alpha):
                term *= s**e
            expr += term
        substituted = sympy.expand(
            expr.subs({s: s + sympy.Rational(v) for s, v in zip(syms, u)}, simultaneous=True)
        )

        back = sympy.Integer(0)
        for alpha, c in shifted.terms.items():
            term = sympy.Rational(c)
            for s, e in zip(syms, alpha):
                term *= s**e
            back += term
        assert sympy.expand(back - substituted) == 0


def standard_count(leads, n):
    """The number of monomials in no upset of ``leads``; None if infinite."""
    bounds = []
    for k in range(n):
        pure = [e[k] for e in leads if not any(e[:k] + e[k + 1:])]
        if not pure:
            return None
        bounds.append(min(pure))
    return sum(
        not any(all(map(int.__ge__, b, e)) for e in leads)
        for b in product(*map(range, bounds))
    )


def oracle_is_groebner(spec, family, domain):
    """G in I(spec) is a Groebner basis of I(spec) exactly when sympy's
    reduced basis of <G> has every leading monomial in the upset of G's
    witnesses (G is a Groebner basis of <G>; a monic witness leads under
    every order) and as many standard monomials as the grid count (so <G>
    is all of I(spec), whose quotient has that dimension)."""
    n = family.nvars
    ring_sym, *gens = sympy.ring(",".join(f"x{k}" for k in range(1, n + 1)), domain, "grevlex")
    basis = groebner([to_sympy(g, ring_sym, gens) for g in family.members], ring_sym)
    leads = [tuple(g.LM) for g in basis]
    covered = all(
        any(all(map(int.__ge__, lead, theta)) for theta in family.witnesses) for lead in leads
    )
    return covered and standard_count(leads, n) == grid_staircase_count(spec)


def drawn_certifications(rng, ring, tables):
    """Multiplicity families over random tables (n <= 3, <= 3 points per
    axis, <= 4 members), each also with its first member dropped and with
    that member times x_k - c, which keeps it in the ideal."""
    for _ in range(tables):
        n = rng.randint(1, 3)
        axes = [list(range(rng.randint(1, 3))) for _ in range(n)]
        labels = tuple(range(rng.randint(1, 4)))
        values = {(k, u, lam): rng.randint(0, 2)
                  for k in range(n) for u in axes[k] for lam in labels}
        try:
            family, spec = multiplicity_family(ring, axes, MultiplicityTable(n, labels, values))
        except InfiniteComplement:  # some B_a leaves an infinite staircase
            continue
        yield spec, family
        if len(family) > 1:
            yield spec, MonicFamily.build(family.members[1:])
        factor = variable(ring, n, rng.randrange(n)) - Poly.constant(ring, n, rng.randint(0, 4))
        yield spec, MonicFamily.build((family.members[0] * factor,) + family.members[1:])


@pytest.mark.parametrize("ring,domain", [(GF(5), sympy.FF(5)), (QQ, sympy.QQ)])
def test_certify_groebner_matches_sympy(ring, domain):
    seen = set()
    for spec, family in drawn_certifications(random.Random(14), ring, 300):
        report = certify_groebner(spec, family)
        assert all(report.condition_d)  # every grid over a field satisfies (D)
        expected = oracle_is_groebner(spec, family, domain)
        assert report.verdict == ("groebner" if expected else "not_groebner"), (
            [str(g) for g in family.members], dict(spec.B))
        seen.add((report.verdict, report.leading_count is None))
    assert seen == {("groebner", False), ("not_groebner", False), ("not_groebner", True)}
