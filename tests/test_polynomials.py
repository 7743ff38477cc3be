import time
from fractions import Fraction

import pytest

from combnull import (
    GF,
    NEG_INF,
    QQ,
    ZZ,
    ArityMismatch,
    MultisetGrid,
    NonPositiveMultiplicity,
    NotMonic,
    ParseError,
    Poly,
    RingMismatch,
    ScaleExceeded,
    Zmod,
    format_poly,
    level_basis,
    parse_poly,
    root_product,
    taylor_shift,
)
from combnull import polynomials
from conftest import (
    P,
    monic_power_product,
    partial_evaluate,
    random_monic,
    random_poly,
    scale,
    variable,
)


def shift_by_substitution(f, u):
    """Oracle: substitute x_k -> x_k + u_k and expand with plain products."""
    ring = f.ring
    out = Poly.zero(ring, f.nvars)
    shifted_vars = [
        variable(ring, f.nvars, k) + Poly.constant(ring, f.nvars, v)
        for k, v in enumerate(u)
    ]
    for alpha, c in f.terms.items():
        term = Poly.constant(ring, f.nvars, c)
        for k, e in enumerate(alpha):
            term = term * shifted_vars[k] ** e
        out = out + term
    return out


def test_product_difference_of_squares():
    f = P("x1 + 1") * P("x1 - 1")
    assert f == P("x1^2 - 1")


def test_multiply_by_zero():
    f = P("x1^2*x2 + 3")
    assert (f * Poly.zero(ZZ, 2)).is_zero()


def test_zero_product_over_zmod6_prunes():
    R = Zmod(6)
    f = parse_poly("2*x1", R, 1)
    g = parse_poly("3*x1", R, 1)
    assert (f * g).is_zero()


def test_degree():
    assert P("x1^2*x2 + x2").degree() == 3
    assert Poly.zero(ZZ, 2).degree() == NEG_INF
    assert P("5", nvars=2).degree() == 0
    assert NEG_INF < 0


def test_monic_witness():
    assert P("x1*x2 + x1 + 1").monic_witness() == (1, 1)
    assert P("x1 + x2").monic_witness() is None
    assert P("2*x1 + 1").monic_witness() is None
    assert Poly.zero(ZZ, 1).monic_witness() is None
    assert P("1", nvars=3).monic_witness() == (0, 0, 0)


def test_taylor_shift_examples():
    assert taylor_shift(P("x1^2"), (1,)) == P("x1^2 + 2*x1 + 1")
    f = P("x1^3*x2 - 2*x2 + 4")
    assert taylor_shift(f, (0, 0)) == f
    assert taylor_shift(P("x1*x2"), (1, 1)) == P("x1*x2 + x1 + x2 + 1")


@pytest.mark.parametrize(
    "ring,values",
    [
        (ZZ, range(-2, 3)),
        (Zmod(6), range(6)),
        (GF(5), range(5)),
        (QQ, [Fraction(1, 2), Fraction(-1, 3), 0, 2]),
    ],
)
def test_taylor_shift_matches_substitution(rng, ring, values):
    values = list(values)
    for _ in range(25):
        n = rng.randint(1, 3)
        f = random_poly(rng, ring, n, max_deg=4)
        u = tuple(ring.canon(rng.choice(values)) for _ in range(n))
        assert taylor_shift(f, u) == shift_by_substitution(f, u)


def test_taylor_shift_involution_and_evaluation(rng):
    for ring in (ZZ, Zmod(6), QQ):
        for _ in range(20):
            n = rng.randint(1, 3)
            f = random_poly(rng, ring, n)
            u = tuple(ring.canon(rng.randint(-2, 2)) for _ in range(n))
            back = taylor_shift(taylor_shift(f, u), tuple(ring.neg(v) for v in u))
            assert back == f
            assert taylor_shift(f, u).evaluate((ring.zero,) * n) == f.evaluate(u)


def test_evaluate():
    assert P("x1^2 - x1").evaluate((1,)) == 0
    assert P("7", nvars=2).evaluate((3, 4)) == 7
    assert P("x1 + x2").evaluate((2, 3)) == 5
    q = parse_poly("1/2*x1 + 1/3", QQ, 1)
    assert q.evaluate((Fraction(1, 3),)) == Fraction(1, 2)


def test_root_product():
    assert root_product(ZZ, 1, 0, [0, 1]) == P("x1^2 - x1")
    assert root_product(ZZ, 2, 1, []) == Poly.one(ZZ, 2)
    assert root_product(ZZ, 1, 0, [0], {0: 2}) == P("x1^2")
    g = root_product(ZZ, 1, 0, [0, 1, 2], {0: 1, 1: 2, 2: 1})
    assert g.degree() == 4
    assert g.monic_witness() == (4,)
    with pytest.raises(NonPositiveMultiplicity):
        root_product(ZZ, 1, 0, [0], {0: 0})
    # the rule Axis.build applies: an int, not a bool, at least 1
    for m in (True, 1.5, 2.0, "2"):
        with pytest.raises(NonPositiveMultiplicity):
            root_product(ZZ, 1, 0, [0], {0: m})
    with pytest.raises(ParseError):
        root_product(ZZ, 1, 0, [True])
    # elements that collide after canon are separate factors
    assert root_product(Zmod(6), 1, 0, [-3, 3]) == P("x1^2 + 3", Zmod(6))
    with pytest.raises(ValueError):
        root_product(ZZ, 0, 0, [1])
    with pytest.raises(ValueError):
        root_product(ZZ, 2, 2, [1])


def test_root_product_matches_the_factor_by_factor_product():
    # the factors x - u are multiplied in pairs, round after round (an odd
    # one out waits for the next round); each slot is reduced once at the end
    half, third = Fraction(1, 2), Fraction(-2, 3)
    cases = [
        (ZZ, range(-3, 4), None),
        (QQ, [half, 0, third], {half: 3, 0: 1, third: 2}),
        (Zmod(6), [2, 3, 4], {2: 2, 3: 3, 4: 1}),
        (GF(7), range(7), None),  # x^7 - x: the middle slots reduce to zero
    ]
    for ring, elements, psi in cases:
        expected = Poly.one(ring, 1)
        for u in elements:
            factor = Poly(ring, 1, {(1,): 1, (0,): ring.neg(ring.canon(u))})
            expected = expected * factor ** (1 if psi is None else psi[u])
        assert root_product(ring, 1, 0, elements, psi) == expected
    assert root_product(GF(7), 1, 0, range(7)) == P("x1^7 - x1", GF(7))


def test_axis_degree_is_counted_before_any_product():
    # degree d takes d (d + 1) / 2 coefficient steps: 1 413 takes 998 991 and
    # is built (x^d in linear time), 1 414 would take 1 000 405 and is refused
    assert root_product(GF(5), 1, 0, [0], {0: 1413}) == P("x1^1413", GF(5))
    with pytest.raises(ScaleExceeded, match="degree 1414 "):
        MultisetGrid.build(GF(5), [[0, 1]], [{0: 1413, 1: 1}])
    start = time.perf_counter()
    with pytest.raises(ScaleExceeded, match="degree 10000000 "):
        root_product(ZZ, 1, 0, [0], {0: 10**7})
    assert time.perf_counter() - start < 0.1


def test_monic_power_product():
    g1 = P("x1^2 - x1", nvars=2)
    g2 = P("x2^2 - x2", nvars=2)
    built = monic_power_product([g1, g2], [(1, 1), (0, 0), (2, 1), (0, 3)])
    assert built == [
        (g1 * g2, (2, 2)),
        (Poly.one(ZZ, 2), (0, 0)),
        (g1 * g1 * g2, (4, 2)),
        (g2 * g2 * g2, (0, 6)),
    ]
    assert monic_power_product([g1, g2], []) == []
    [(sq, theta_sq)] = monic_power_product([P("x1^2 - 1")], [(2,)])
    assert sq == P("x1^4 - 2*x1^2 + 1")
    assert theta_sq == (4,)
    with pytest.raises(ArityMismatch):
        monic_power_product([g1, g2], [(1,)])
    with pytest.raises(ValueError):
        monic_power_product([g1, g2], [(1, -1)])
    # the axis polynomials are rejected before any product is built, so
    # also when the result is discarded or no product is asked for
    for alphas in ([(1, 1)], []):
        with pytest.raises(ValueError, match="involves other variables"):
            monic_power_product([P("x1*x2", nvars=2), g2], alphas)
        with pytest.raises(NotMonic):
            monic_power_product([P("2*x1", nvars=2), g2], alphas)
        with pytest.raises(ArityMismatch):
            monic_power_product([g2], alphas)


def test_monic_power_product_counts_terms_up_front(monkeypatch):
    g = [P("x1^2 - x1", nvars=3), P("x2^2 - x2", nvars=3), P("x3^2 - x3", nvars=3)]
    # level 2 on {0,1}^3: three squares of 3 terms, three products of 2 * 2
    level2 = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert sum(len(p.terms) for p, _ in monic_power_product(g, level2)) == 21
    monkeypatch.setattr(polynomials, "MAX_BASIS_TERMS", 21)
    assert len(monic_power_product(g, level2)) == 6
    monkeypatch.setattr(polynomials, "MAX_BASIS_TERMS", 20)
    with pytest.raises(ScaleExceeded, match="^6 power products need over 20 terms$"):
        monic_power_product(g, level2)
    # one product of 2 * 2 terms, and no power past g to count
    monkeypatch.setattr(polynomials, "MAX_BASIS_TERMS", 3)
    with pytest.raises(ScaleExceeded, match="^1 power product needs over 3 terms$"):
        monic_power_product(g, [(1, 1, 0)])
    # the power tables are bounded too: x1^2 - x1 to the powers 2..5 hold
    # 3 + 4 + 5 + 6 = 18 terms, though the one product holds 6
    monkeypatch.setattr(polynomials, "MAX_BASIS_TERMS", 17)
    with pytest.raises(ScaleExceeded, match="powers up to exponent 5"):
        monic_power_product([P("x1^2 - x1")], [(5,)])
    monkeypatch.setattr(polynomials, "MAX_BASIS_TERMS", 18)
    assert monic_power_product([P("x1^2 - x1")], [(5,)])[0][1] == (10,)


def test_oversized_level_basis_is_refused():
    # 1 891 members with 8 259 888 terms: refused before any product is built
    with pytest.raises(ScaleExceeded, match="1891 power products need over 1000000 terms"):
        level_basis(MultisetGrid.build(ZZ, [[0, 1]] * 3), 60)


def test_monic_product_coefficient_transfer(rng):
    # multiplying by a monic factor copies every maximal coefficient
    for ring in (ZZ, Zmod(6)):
        for _ in range(25):
            n = rng.randint(1, 3)
            f = random_poly(rng, ring, n)
            g = random_monic(rng, ring, n)
            theta = g.monic_witness()
            prod = f * g
            for gamma in f.max_support():
                key = tuple(a + b for a, b in zip(gamma, theta))
                assert prod.coeff(key) == f.coeff(gamma)
            if not f.is_zero():
                expected_max = {
                    tuple(a + b for a, b in zip(gamma, theta))
                    for gamma in f.max_support()
                }
                assert prod.max_support() == expected_max
                assert prod.degree() == f.degree() + g.degree()
                assert not prod.is_zero()


def test_mismatch_errors():
    with pytest.raises(RingMismatch):
        P("x1") + parse_poly("x1", Zmod(5), 1)
    with pytest.raises(ArityMismatch):
        P("x1") + P("x1", nvars=2)
    with pytest.raises(ArityMismatch):
        P("x1").evaluate((1, 2))


def test_format_descending_graded_lex():
    f = P("1 + x3 + 3*x1^2*x2", nvars=3)
    assert format_poly(f) == "3*x1^2*x2 + x3 + 1"
    assert format_poly(P("x1 - x2 - 1", nvars=2)) == "x1 - x2 - 1"
    assert format_poly(Poly.zero(ZZ, 2)) == "0"
    assert format_poly(P("-x1 + 2")) == "-x1 + 2"


def test_parse_round_trip(rng):
    for ring in (ZZ, QQ, Zmod(6), GF(5)):
        for _ in range(40):
            n = rng.randint(1, 3)
            f = random_poly(rng, ring, n)
            if ring is QQ:
                f = scale(f, Fraction(1, rng.randint(1, 5)))
            assert parse_poly(format_poly(f), ring, n) == f


def test_parse_specifics():
    assert P("x1^2-x1") == P("x1^2 - x1")
    assert P("-2*x1 + x1") == P("-x1")
    assert parse_poly("1/2*x1 - 1/2", QQ, 1) == parse_poly("1/2*x1 - 1/2", QQ, 1)
    assert parse_poly("x1*x1", ZZ, 1) == P("x1^2")
    assert parse_poly("2*3", ZZ, 1) == P("6")
    with pytest.raises(ParseError):
        parse_poly("x9", ZZ, 2)
    with pytest.raises(ParseError):
        parse_poly("1/2*x1", ZZ, 1)
    with pytest.raises(ParseError):
        parse_poly("x1 ++ 2", ZZ, 1)
    with pytest.raises(ParseError):
        parse_poly("", ZZ, 1)
    with pytest.raises(ParseError):
        parse_poly("x1 * * x2", ZZ, 2)


def test_partial_evaluate():
    f = P("x1^2*x2 + x1*x2 + x2 + x1", nvars=2)
    g = partial_evaluate(f, {0: 2})
    assert g == P("7*x2 + 2", nvars=2)
    assert g.nvars == 2


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(6), GF(5)], ids=str)
def test_negation_negates_every_coefficient(ring):
    f = parse_poly("3*x1^2*x2 - x2 + 2", ring, 2)
    assert -f == parse_poly("-3*x1^2*x2 + x2 - 2", ring, 2)
    assert -f + f == Poly(ring, 2) and -(-f) == f
    assert -Poly(ring, 2) == Poly(ring, 2)


def test_a_poly_equals_only_polys():
    assert (P("x1") == 1) is False
    assert P("1") != 1


def test_parse_cancels_to_zero():
    assert parse_poly("x1 - x1", ZZ, 1).is_zero()
    assert parse_poly("2*x1*x2 - x2*x1 - x1*x2", Zmod(6), 2) == Poly.zero(Zmod(6), 2)
