"""Property tests: the basis builders against product oracles, the Taylor
shift and text round trips, level ideals against their vanishing specs,
and certificate JSON round trips and tamper rejection.

hypothesis is a test-only dependency; the module is skipped without it.
Examples are derandomized so every run checks the same cases.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from combnull import (
    GF,
    QQ,
    ZZ,
    Axis,
    MonicFamily,
    MultisetGrid,
    Poly,
    VanishingSpec,
    Zmod,
    certify_groebner,
    compositions,
    format_poly,
    in_vanishing_ideal,
    level_basis,
    level_certificate,
    level_membership,
    level_normal_form,
    parse_poly,
    reduce,
    root_product,
    taylor_shift,
)
from combnull import polynomials
from combnull.polynomials import PowerTable, _power_products
from combnull.serialization import certificate_to_json, verify_certificate_json
from conftest import RINGS, level_normal_form_oracle, monic_power_product
from test_multiset_ideals import _products, _root_power_product

PROPERTY = settings(derandomize=True, database=None, deadline=None)

# ring -> the values grid axes draw their support from
GRID_RINGS = ((ZZ, range(-2, 3)), (GF(5), range(5)))


def elements(ring, span=3):
    """Values in [-span, span], so -3 and 3 collide after canon in ZZ/6,
    plus proper fractions over QQ."""
    values = st.integers(-span, span)
    if ring == QQ:
        values = values | st.fractions(-span, span, max_denominator=3)
    return values


def ring_polys(ring, n):
    exps = st.tuples(*[st.integers(0, 3)] * n)
    return st.dictionaries(exps, elements(ring, 7), max_size=6).map(lambda t: Poly(ring, n, t))


@PROPERTY
@given(st.sampled_from(RINGS), st.integers(1, 3), st.data())
def test_builders_match_the_product_oracle(ring, n, data):
    axis_polys = []
    for k in range(n):
        support = data.draw(st.lists(elements(ring), max_size=3, unique=True))
        psi = data.draw(st.none() | st.fixed_dictionaries({u: st.integers(1, 3) for u in support}))
        g = root_product(ring, n, k, support, psi)
        assert g == _root_power_product(ring, n, k, psi or dict.fromkeys(support, 1))
        axis_polys.append(g)
    degs = [int(g.degree()) for g in axis_polys]
    alphas = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4))
    expected = []
    for alpha in alphas:
        g = Poly.one(ring, n)
        for gk, e in zip(axis_polys, alpha):
            g = g * gk ** e
        expected.append((g, tuple(d * e for d, e in zip(degs, alpha))))
    assert monic_power_product(axis_polys, alphas) == expected


def _products_from_every_table(ring, axes, alphas):
    """The products of ``axes``' powers labelled by ``alphas``: from new
    tables, from tables already holding powers past those asked for, from
    new tables that may keep nothing past g, and from the axes' own tables.
    All must equal the builder oracle's."""
    expected = monic_power_product(
        [root_product(ring, len(axes), k, axis.support, axis.psi) for k, axis in enumerate(axes)],
        alphas)
    top = max(map(max, alphas), default=0)
    warm = [PowerTable(ring, axis.terms) for axis in axes]
    for table in warm:
        table.upto(top + 3, float("inf"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polynomials, "MAX_KEPT_POWER_TERMS", 0)
        past = [PowerTable(ring, axis.terms) for axis in axes]
        past_built = _power_products(ring, past, alphas)
    assert all(len(table.powers) == 2 for table in past)
    for tables in ([PowerTable(ring, axis.terms) for axis in axes], warm,
                   [axis.powers for axis in axes]):
        assert _power_products(ring, tables, alphas) == expected
    assert past_built == expected
    return expected


@PROPERTY
@given(st.sampled_from(RINGS + (Zmod(4),)), st.integers(1, 3), st.data())
def test_kept_powers_match_the_product_oracle(ring, n, data):
    axes = []
    for _ in range(n):
        support = {ring.canon(u) for u in data.draw(st.lists(elements(ring), max_size=3))}
        axes.append(Axis.build(ring, support, {u: data.draw(st.integers(1, 3)) for u in support}))
    alphas = data.draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=5))
    _products_from_every_table(ring, axes, alphas)


@pytest.mark.parametrize("ring, supports, sizes", [
    # (x1 - 2)(x2 - 2) has constant term 4 = 0 in ZZ/4, and (x1 - 2)^2 = x1^2
    (Zmod(4), [[2], [2]], [3, 2, 1]),
    # (x1 + 2)(x2 + 3) has constant term 6 = 0 in ZZ/6; the products of
    # (x1 + 2)^2 = x1^2 + 4*x1 + 4 lose two of six terms to 12 = 0
    (Zmod(6), [[4], [3]], [3, 4, 4]),
], ids=["ZZ/4", "ZZ/6"])
def test_kept_powers_prune_zero_coefficients(ring, supports, sizes):
    axes = [Axis.build(ring, S) for S in supports]
    built = _products_from_every_table(ring, axes, [(1, 1), (2, 1), (2, 2)])
    assert [len(g.terms) for g, _ in built] == sizes


@PROPERTY
@given(st.sampled_from(RINGS), st.integers(1, 3), st.integers(0, 3), st.data())
def test_level_basis_matches_the_product_oracle(ring, n, t, data):
    supports = []
    psis = []
    for _ in range(n):
        support = sorted({ring.canon(u) for u in data.draw(st.lists(elements(ring), max_size=3))})
        supports.append(support)
        psis.append({u: data.draw(st.integers(1, 2)) for u in support})
    expected = _products([_root_power_product(ring, n, k, psi) for k, psi in enumerate(psis)], t)
    basis = level_basis(MultisetGrid.build(ring, supports, psis), t)
    assert list(basis.labels) == [alpha for alpha, _ in expected]
    assert list(basis.members) == [g for _, g in expected]


@settings(PROPERTY, max_examples=300)
@given(st.sampled_from(RINGS), st.integers(1, 3), st.integers(0, 4), st.data())
def test_level_normal_form_matches_the_division_oracle(ring, n, t, data):
    # a support may be empty (g_k = 1) or, in ZZ/6, hold -3 and 3, which
    # collide after canon; half the cases add basis members
    supports = [data.draw(st.just([]) if data.draw(st.integers(0, 9)) == 0
                          else st.lists(elements(ring), min_size=1, max_size=3))
                for _ in range(n)]
    psis = [{ring.canon(u): data.draw(st.integers(1, 3)) for u in S} for S in supports]
    grid = MultisetGrid.build(ring, supports, psis)
    exps = st.tuples(*[st.integers(0, 8)] * n)
    f = data.draw(st.dictionaries(exps, elements(ring, 7), max_size=6).map(
        lambda terms: Poly(ring, n, terms)))
    if data.draw(st.booleans()):
        members = st.sampled_from(level_basis(grid, t).members)
        f = f + data.draw(polys(ring, n)) * data.draw(members)
        f = f + data.draw(polys(ring, n)) * data.draw(members)
    nf = level_normal_form(f, grid, t)
    assert nf == level_normal_form_oracle(f, grid, t)
    degs = [axis.degree for axis in grid.axes]
    assert all(sum(g // d for g, d in zip(gamma, degs)) < t for gamma in nf.terms)


@PROPERTY
@given(st.sampled_from((ZZ, QQ, GF(5), GF(7))), st.integers(1, 3), st.integers(0, 3), st.data())
def test_level_ideal_is_the_vanishing_ideal_of_its_simplex(ring, n, t, data):
    # with every multiplicity 1, f is in the level-t ideal exactly when its
    # shift to each grid point has support in the upset of compositions(t, n)
    axes = [data.draw(st.lists(st.integers(-2, 6), min_size=1, max_size=3)) for _ in range(n)]
    grid = MultisetGrid.build(ring, axes)
    simplex = set(compositions(t, n))
    spec = VanishingSpec.build(grid, dict.fromkeys(grid.grid_points(), simplex))
    basis = level_basis(grid, t)
    assert certify_groebner(spec, basis).verdict == "groebner"
    f = data.draw(ring_polys(ring, n).filter(lambda f: not f.is_zero()))
    if data.draw(st.booleans()):
        members = st.sampled_from(basis.members)
        f = f * data.draw(members) + data.draw(ring_polys(ring, n)) * data.draw(members)
    member = level_membership(f, grid, t)
    assert member == in_vanishing_ideal(f, spec)
    nonzero = list(grid.nonzero_points(f))
    assert nonzero == [a for a in grid.grid_points() if f.evaluate(a) != ring.zero]
    # a member of a positive level vanishes on the whole grid
    assert not (member and t >= 1 and nonzero)


@PROPERTY
@given(st.sampled_from(RINGS), st.integers(1, 3), st.data())
def test_taylor_shift_involution(ring, n, data):
    f = data.draw(ring_polys(ring, n))
    u = data.draw(st.tuples(*[elements(ring)] * n))
    assert taylor_shift(taylor_shift(f, u), [-v for v in u]) == f


@PROPERTY
@given(st.sampled_from(RINGS), st.integers(1, 3), st.data())
def test_format_parse_round_trip(ring, n, data):
    f = data.draw(ring_polys(ring, n))
    assert parse_poly(format_poly(f), ring, n) == f


def polys(ring, n, max_deg=1, max_terms=2):
    exps = st.tuples(*[st.integers(0, max_deg)] * n)
    terms = st.dictionaries(exps, st.integers(-3, 3), max_size=max_terms)
    return terms.map(lambda t: Poly(ring, n, t))


@st.composite
def level_members(draw):
    """(grid, t, f) with f a combination of the level-t basis of the grid."""
    ring, values = draw(st.sampled_from(GRID_RINGS))
    n = draw(st.integers(1, 2))
    t = draw(st.integers(1, 2))
    supports = []
    psis = []
    for _ in range(n):
        support = draw(st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True))
        supports.append(support)
        psis.append({u: draw(st.integers(1, 2)) for u in support})
    grid = MultisetGrid.build(ring, supports, psis)
    f = Poly.zero(ring, n)
    for g in level_basis(grid, t).members:
        f = f + draw(polys(ring, n)) * g
    return grid, t, f


@st.composite
def monic(draw, ring, n):
    theta = draw(st.tuples(*[st.integers(0, 2)] * n))
    below = st.tuples(*[st.integers(0, h) for h in theta]).filter(lambda a: a != theta)
    terms = draw(st.dictionaries(below, st.integers(-3, 3), max_size=3)) if any(theta) else {}
    terms[theta] = 1
    return Poly(ring, n, terms)


@st.composite
def divisions(draw):
    ring = draw(st.sampled_from((ZZ, GF(5), Zmod(6))))
    n = draw(st.integers(1, 2))
    family = MonicFamily.build(draw(st.lists(monic(ring, n), min_size=1, max_size=3)))
    return draw(polys(ring, n, max_deg=4, max_terms=5)), family


def round_trip(outcome) -> tuple:
    doc = certificate_to_json(outcome)
    return doc, verify_certificate_json(json.loads(json.dumps(doc)))


@PROPERTY
@given(level_members())
def test_level_certificate_round_trip(case):
    grid, t, f = case
    doc, checks = round_trip(level_certificate(f, grid, t))
    assert checks == {**doc["checks"], "valid": True}


@PROPERTY
@given(level_members(), st.data())
def test_shifted_certificate_is_invalid(case, data):
    grid, t, f = case
    doc = json.loads(json.dumps(certificate_to_json(level_certificate(f, grid, t))))
    ring, n = grid.ring, grid.nvars
    shift = Poly.constant(ring, n, data.draw(st.integers(1, 4)))
    key = data.draw(st.sampled_from(sorted(doc["quotients"]) + ["remainder"]))
    home = doc if key == "remainder" else doc["quotients"]
    home[key] = format_poly(parse_poly(home[key], ring, n) + shift)
    assert verify_certificate_json(doc)["valid"] is False


@PROPERTY
@given(divisions())
def test_reduce_outcome_round_trip(case):
    f, family = case
    doc, checks = round_trip(reduce(f, family))
    assert checks == {**doc["checks"], "valid": True}
