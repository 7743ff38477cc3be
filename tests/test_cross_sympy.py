"""Cross-validation against sympy's sparse polynomial rings.

For a certified Groebner basis over a field, the fully reduced remainder
is unique, so our normal form must coincide with sympy's multivariate
remainder against the same generators.  Taylor shifts are likewise checked
against substitution in sympy.  sympy is a test-only oracle, not a
dependency of the library.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from combnull import (
    GF,
    QQ,
    MultisetGrid,
    Poly,
    level_basis,
    level_normal_form,
    reduce,
    taylor_shift,
)
from conftest import random_poly


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
