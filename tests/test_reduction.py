import pytest

import combnull.reduction
from combnull import (
    ZZ,
    InternalInvariantError,
    MonicFamily,
    NonzeroRemainder,
    NotMonic,
    Poly,
    ScaleExceeded,
    UncertifiedBasis,
    ZeroPolynomial,
    Zmod,
    buchberger_certifies,
    decompose_member,
    level_basis,
    membership_refutation,
    normal_form,
    reduce,
    s_polynomial,
)
from combnull import MultisetGrid
from conftest import P, downset, random_family, random_poly


def family(*texts, ring=ZZ, nvars=None):
    polys = [P(t, ring=ring, nvars=nvars) for t in texts]
    nv = max(p.nvars for p in polys)
    polys = [P(t, ring=ring, nvars=nv) for t in texts]
    return MonicFamily.build(polys)


def test_family_rejects_non_monic():
    with pytest.raises(NotMonic):
        family("x1 + x2")
    with pytest.raises(NotMonic):
        family("2*x1 + 1")


def test_reduce_worked_example():
    f = P("x1^2*x2 + x2", nvars=2)
    G = family("x1^2 - 1", nvars=2)
    out = reduce(f, G)
    assert out.quotients[0] == P("x2", nvars=2)
    assert out.remainder == P("2*x2", nvars=2)
    assert out.verify() == {
        "identity": True,
        "support": True,
        "remainder_reduced": True,
    }


def test_reduce_already_reduced():
    f = P("x1*x2 + 1", nvars=2)
    G = family("x1^2 - x1", "x2^2 - x2", nvars=2)
    out = reduce(f, G)
    assert all(q.is_zero() for q in out.quotients)
    assert out.remainder == f
    assert out.steps == 0


def test_reduce_family_member_gives_zero_remainder():
    G = family("x1^2 - x1", "x2^2 - x2", nvars=2)
    out = reduce(G.members[0], G)
    assert out.remainder.is_zero()
    assert out.quotients[0] == Poly.one(ZZ, 2)
    assert out.quotients[1].is_zero()


def test_reduce_empty_family():
    f = P("x1^3 - 4")
    out = reduce(f, MonicFamily.build([]))
    assert out.remainder == f
    assert out.quotients == ()


def test_reduce_conditions_random(rng):
    for ring in (ZZ, Zmod(6)):
        for _ in range(120):
            n = rng.randint(1, 3)
            f = random_poly(rng, ring, n, max_deg=4)
            G = random_family(rng, ring, n)
            out = reduce(f, G)
            checks = out.verify()
            assert all(checks.values()), checks
            # termination bound: each step consumed a fresh downset point
            assert out.steps <= len(downset(f.support()))
            again = reduce(out.remainder, G)
            assert again.remainder == out.remainder
            assert all(q.is_zero() for q in again.quotients)


def test_s_polynomial_examples():
    s = s_polynomial(P("x1^2 - 1", nvars=2), P("x2^2 - 1", nvars=2))
    assert s == P("x1^2 - x2^2", nvars=2)
    g = P("x1^2 - x1")
    assert s_polynomial(g, g).is_zero()
    assert s_polynomial(P("x1^2"), P("x1^3")).is_zero()
    with pytest.raises(NotMonic):
        s_polynomial(P("x1 + x2", nvars=2), P("x1", nvars=2))


def test_buchberger_certifies_axis_products():
    assert buchberger_certifies(family("x1^2 - x1", "x2^2 - x2", nvars=2))
    assert buchberger_certifies(family("x1^3 - 2*x1"))
    grid = MultisetGrid.build(ZZ, [[0, 1], [0, 1]])
    assert buchberger_certifies(level_basis(grid, 2))


def test_buchberger_inconclusive_pair():
    # S(x1*x2 + x1, x2^2) reduces to -x1, which no witness dominates
    G = family("x1*x2 + x1", "x2^2", nvars=2)
    assert buchberger_certifies(G) is False


def test_membership_refutation_examples():
    G = family("x1^2 - x1", "x2^2 - x2", nvars=2)
    assert membership_refutation(P("x1*x2", nvars=2), G) == (1, 1)
    assert membership_refutation(P("x1^2", nvars=2), G) is None
    assert membership_refutation(P("x1^3 + x2", nvars=2), G) == (0, 1)
    with pytest.raises(ZeroPolynomial):
        membership_refutation(Poly.zero(ZZ, 2), G)


def test_decompose_member(monkeypatch):
    G = family("x1^2 - x1", "x2^2 - x2", nvars=2)
    out = decompose_member(P("x1^3*x2 - x1*x2", nvars=2), G)
    assert out.remainder.is_zero()
    assert all(out.verify().values())
    assert decompose_member(Poly.zero(ZZ, 2), G).remainder.is_zero()
    with pytest.raises(NonzeroRemainder):
        decompose_member(P("x1*x2 + 1", nvars=2), G)
    # a zero remainder that leaves a maximal exponent uncovered is a bug
    f = P("x1*x2", nvars=2)
    forged = reduce(Poly.zero(ZZ, 2), G)
    monkeypatch.setattr(combnull.reduction, "reduce", lambda *_: forged)
    with pytest.raises(InternalInvariantError, match="dominates no leading exponent"):
        decompose_member(f, G)


def test_normal_form_requires_certification():
    G = family("x1^2 - x1")
    with pytest.raises(UncertifiedBasis):
        normal_form(P("x1^2"), G)
    certified = G.certify()
    assert normal_form(P("x1^2"), certified) == P("x1")


def test_normal_form_examples():
    G = family("x1^2 - x1", "x2^2 - x2", nvars=2).certify()
    assert normal_form(P("x1^2*x2^2", nvars=2), G) == P("x1*x2", nvars=2)
    member = G.members[0] * P("x1*x2 + 3", nvars=2)
    assert normal_form(member, G).is_zero()
    # agreement with evaluation on the grid the basis vanishes on
    f = P("x1^3*x2 + x2 - 1", nvars=2)
    nf = normal_form(f, G)
    for a in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert f.evaluate(a) == nf.evaluate(a)


def test_normal_form_invariant_under_adding_members(rng):
    grid = MultisetGrid.build(ZZ, [[0, 1], [0, 1]])
    G = level_basis(grid, 1)
    for _ in range(40):
        f = random_poly(rng, ZZ, 2, max_deg=4)
        shift = Poly.zero(ZZ, 2)
        for g in G.members:
            shift = shift + random_poly(rng, ZZ, 2, max_deg=2, max_terms=3) * g
        assert normal_form(f, G) == normal_form(f + shift, G)


def test_groebner_characterization_cross_check(rng):
    # members decompose with no refutation; refuted polynomials never
    # reduce to zero
    grid = MultisetGrid.build(Zmod(6), [[0, 1], [0, 1]])
    G = level_basis(grid, 1)
    ring = grid.ring
    for _ in range(60):
        member = Poly.zero(ring, 2)
        for g in G.members:
            member = member + random_poly(rng, ring, 2, max_deg=2, max_terms=3) * g
        out = reduce(member, G)
        assert out.remainder.is_zero()
        if not member.is_zero():
            assert membership_refutation(member, G) is None
    for _ in range(60):
        f = random_poly(rng, ring, 2, max_deg=3)
        if f.is_zero():
            continue
        if membership_refutation(f, G) is not None:
            assert not reduce(f, G).remainder.is_zero()


def test_certify_returns_new_family():
    G = family("x1^2 - x1")
    assert not G.certified
    certified = G.certify()
    assert certified.certified and not G.certified
    assert certified.members == G.members


def test_packing_counts_its_key_fields():
    # n weights of n + 1 fields: 999 variables make 999 000 and pack,
    # 1 000 make 1 001 000 and are refused before any weight is built
    family = MonicFamily.build([P("x1", nvars=999)])
    assert reduce(P("x1*x999"), family).quotients == (P("x999"),)
    refusal = "^packed keys in 1000 variables need over 1000000 fields$"
    with pytest.raises(ScaleExceeded, match=refusal):
        reduce(P("x1*x1000"), MonicFamily.build([P("x1", nvars=1000)]))
    with pytest.raises(ScaleExceeded, match=refusal):
        s_polynomial(P("x1*x1000"), P("x1", nvars=1000))
