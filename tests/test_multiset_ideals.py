import copy
import gc
import pickle
import random
import sys
import threading
import time
import weakref
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from combnull import (
    GF,
    QQ,
    ZZ,
    Axis,
    CoverInstance,
    EmptyPuncture,
    Inapplicable,
    MonicFamily,
    MultisetGrid,
    NonPositiveMultiplicity,
    NotMember,
    Poly,
    PuncturedGrid,
    Ring,
    RingMismatch,
    ScaleExceeded,
    VanishingSpec,
    Zmod,
    buchberger_certifies,
    level_basis,
    level_certificate,
    level_membership,
    level_normal_form,
    min_extra_degree,
    mixed_basis,
    mixed_certificate,
    mixed_membership,
    punctured_analysis,
    punctured_membership,
    reduce,
    root_product,
    taylor_shift,
)
from combnull import multiset_ideals, polynomials
from combnull.multiset_ideals import MAX_GRID_POINTS
from combnull.staircase import compositions
from conftest import (
    P,
    level_normal_form_oracle,
    mixed_scan,
    monic_power_product,
    off_poly,
    partial_evaluate,
    punctured_scan,
    random_poly,
    scale,
    variable,
)


def cube(ring=ZZ, n=2):
    return MultisetGrid.build(ring, [[0, 1]] * n)


def punctured_cube(ring=ZZ, n=2):
    return PuncturedGrid.build(cube(ring, n), [[0]] * n)


def test_axis_validation():
    with pytest.raises(NonPositiveMultiplicity):
        MultisetGrid.build(ZZ, [[0, 1]], [{0: 0, 1: 1}])
    with pytest.raises(NonPositiveMultiplicity):
        MultisetGrid.build(ZZ, [[0, 1]], [{0: 1}])
    with pytest.raises(ValueError):
        MultisetGrid.build(ZZ, [[0]], [{0: 1, 5: 1}])
    with pytest.raises(ValueError):
        PuncturedGrid.build(cube(), [[0], [7]])
    # 7 is canonical in ZZ, not in GF(5): a grid takes only axes of its own ring
    with pytest.raises(RingMismatch):
        MultisetGrid.build(ZZ, [[0, 7]]).replace(ring=GF(5))
    with pytest.raises(RingMismatch):
        punctured_cube().replace(ring=QQ)


def test_axes_are_interned():
    # equal inputs give one Axis, whatever the order or repeats of the values
    grid = MultisetGrid.build(ZZ, [[0, 1], [1, 0, 1]], [{0: 2, 1: 1}, {1: 1, 0: 2}])
    axis = grid.axes[0]
    assert grid.axes[1] is axis
    assert Axis.build(ZZ, (1, 0), {0: 2, 1: 1}) is axis
    assert Axis.build(ZZ, [0, 1]) is not axis
    # g = x^2 (x - 1), computed once for the axis
    assert axis.terms == ((2, 3), (-1, 1))
    assert grid.axes[1].terms is axis.terms
    # Fraction(1) == 1, yet QQ keeps its own axes, with its own coefficients
    zz, qq, z6 = (Axis.build(ring, [0, 1]) for ring in (ZZ, QQ, Zmod(6)))
    assert zz != qq and zz is not qq and z6 != zz
    assert qq.terms == zz.terms == ((1, 2), (-1, 1))
    assert [type(c) for c in qq.terms[1]] == [Fraction, Fraction]
    assert z6.terms == ((1, 2), (5, 1))
    # replace, pickle and copy rebuild through build: the interned axis, with
    # the g of its own support and psi over its own ring
    simple = Axis.build(ZZ, [0, 1])
    assert simple.replace(psi={0: 2, 1: 1}) is axis
    assert axis.replace(ring=QQ) is Axis.build(QQ, [0, 1], {0: 2, 1: 1})
    assert axis.replace(ring=QQ).terms == axis.terms
    assert pickle.loads(pickle.dumps(axis)) is axis is copy.deepcopy(axis)
    doubled = MultisetGrid.build(ZZ, [[0, 1]]).replace(axes=(axis,))
    [g] = level_basis(doubled, 1).members
    assert g == P("x1^3 - x1^2") and level_membership(g, doubled, 1)


def test_grids_round_trip_through_pickle_and_deepcopy():
    half = Fraction(1, 2)
    grid = MultisetGrid.build(QQ, [[0, half], [1]], [{0: 2, half: 1}, None])
    pgrid = PuncturedGrid.build(grid, [[half], [1]])
    spec = VanishingSpec.build(cube(), {a: {(1, 0), (0, 1)} for a in product([0, 1], repeat=2)})
    instance = CoverInstance.build(pgrid, [(P("2*x1 - 1", QQ, nvars=2), 1)], 2)
    for value in (grid, pgrid, spec, instance):
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value and copied is not value
    assert pickle.loads(pickle.dumps(grid)).axes[0] is grid.axes[0]


def test_axis_poly_is_the_root_product_of_its_axis():
    # axis_poly embeds the interned axis's g; root_product builds it anew
    for ring, supports, psis in [
        (ZZ, [[0, 1], [0, 1, 2]], [{0: 2, 1: 1}, None]),
        (GF(5), [[0, 7, 3], []], None),
        (QQ, [[Fraction(1, 2), 1]], [{Fraction(1, 2): 3, 1: 1}]),
        (Zmod(6), [[0, 3], [1, 2, 4]], [None, {1: 1, 2: 2, 4: 1}]),
    ]:
        grid = MultisetGrid.build(ring, supports, psis)
        for k, axis in enumerate(grid.axes):
            assert grid.axis_poly(k) == root_product(ring, grid.nvars, k, axis.support, axis.psi)


def test_axis_multiplicities_are_read_only():
    axis = MultisetGrid.build(ZZ, [[0, 1]], [{0: 2, 1: 1}]).axes[0]
    with pytest.raises(TypeError):
        axis.psi[0] = 5
    with pytest.raises(AttributeError, match="psi"):
        axis.psi = {0: 5, 1: 1}
    assert axis.psi == {0: 2, 1: 1} and axis.degree == 3


def test_intern_table_holds_axes_weakly():
    ring = GF(101)
    key = (ring, (3, 7), (2, 5))
    grid = MultisetGrid.build(ring, [[7, 3]], [{3: 2, 7: 5}])
    ref = weakref.ref(grid.axes[0])
    assert multiset_ideals._AXES.get(key) is ref()
    level_basis(grid, 2)
    del grid
    gc.collect()
    assert ref() is None
    assert key not in multiset_ideals._AXES


def test_scale_refusal_ignores_earlier_builds(monkeypatch):
    # a cached exponent listing is counted again on every call
    cube3 = cube(n=3)
    assert len(level_basis(cube3, 2)) == 6
    monkeypatch.setattr(multiset_ideals, "MAX_BASIS_TERMS", 5)
    with pytest.raises(ScaleExceeded, match="^6 power products"):
        level_basis(cube3, 2)
    # the axis keeps the powers of g it built, but the second build of one
    # grid counts the powers it uses as the first did
    monkeypatch.setattr(polynomials, "MAX_BASIS_TERMS", 17)
    grid = MultisetGrid.build(ZZ, [[0, 1]])
    for _ in range(2):
        assert len(level_basis(grid, 4).members[0].terms) == 5
        with pytest.raises(ScaleExceeded, match="powers up to exponent 5"):
            level_basis(grid, 5)


def test_axes_compare_by_identity_and_grids_hash():
    # g is x^3 - x^2 over ZZ and x^3 + x^2 over GF(2): equal fields, two axes
    zz, gf2 = (Axis.build(ring, [0, 1], {0: 2, 1: 1}) for ring in (ZZ, GF(2)))
    assert (zz.support, zz.psi) == (gf2.support, gf2.psi)
    assert zz != gf2 and zz.terms != gf2.terms
    assert Axis.build(ZZ, [1, 0], {1: 1, 0: 2}) == zz
    assert pickle.loads(pickle.dumps(zz)) is zz and copy.copy(zz) is zz
    assert zz.replace(psi={0: 2, 1: 1}) is zz
    grid, again = (MultisetGrid.build(ZZ, [[0, 1]] * 2, [{0: 2, 1: 1}] * 2) for _ in range(2))
    pgrid, pagain = (PuncturedGrid.build(g, [[0], [1]]) for g in (grid, again))
    assert grid == again and hash(grid) == hash(again)
    assert pgrid == pagain and hash(pgrid) == hash(pagain)
    table = {grid: "grid", pgrid: "pgrid"}
    assert table[again] == "grid" and table[pagain] == "pgrid"
    assert MultisetGrid.build(GF(2), [[0, 1]] * 2, [{0: 2, 1: 1}] * 2) not in table


def _fresh_axis_outcomes(ring, support, inputs, outcome):
    """For each ``(n, t, f)``, ``outcome(grid, t, f)`` on the grid
    ``support``^n, each on an axis built afresh."""
    out = []
    for n, t, f in inputs:
        gc.collect()
        assert (ring, tuple(support), (1,) * len(support)) not in multiset_ideals._AXES
        out.append(outcome(MultisetGrid.build(ring, [support] * n), t, f))
    return out


def _built_or_refused(grid, t, f):
    """The level basis or, with a polynomial f, its level normal form, as
    text: the members, the normal form or the refusal."""
    try:
        if f is None:
            return [str(g) for g in level_basis(grid, t).members]
        return str(level_normal_form(f, grid, t))
    except ScaleExceeded as exc:
        return str(exc)


def _counting_member_builds(monkeypatch):
    """The leading exponents of the members ``level_normal_form`` builds
    from here on, in order."""
    leads = []
    build = multiset_ideals._member_tail

    def counted(ring, powers):
        leads.append(tuple(power[0][-1] for power in powers))
        return build(ring, powers)

    monkeypatch.setattr(multiset_ideals, "_member_tail", counted)
    return leads


def test_scale_refusal_ignores_kept_powers(monkeypatch):
    # an input is refused, or answered, alike on a fresh axis and on one
    # whose powers up to a high level are kept
    ring = GF(89)  # an axis no other test keeps alive
    support = [0, 1, 2]
    f = P("x1^40*x2^9 - 3*x1^20", ring, nvars=2)
    inputs = [(n, t, None) for n in (1, 2, 3) for t in range(2, 7)]
    # g = x^3 - 3x^2 + 2x: x1^300 at level 1 counts (300 - 3 + 1) * 2 = 596
    # terms up front, so no member is built; f at levels 1 and 2 takes at
    # most 410 terms, and at levels 3 and 5 it is refused as it divides
    inputs += [(2, 1, P("x1^300", ring, nvars=2))] + [(2, t, f) for t in (1, 2, 3, 5)]
    monkeypatch.setattr(polynomials, "MAX_BASIS_TERMS", 40)
    monkeypatch.setattr(multiset_ideals, "MAX_NORMAL_FORM_TERMS", 420)
    leads = _counting_member_builds(monkeypatch)

    def outcome(grid, t, f):  # and the number of members built
        del leads[:]
        return _built_or_refused(grid, t, f), len(leads)

    fresh = _fresh_axis_outcomes(ring, support, inputs, outcome)
    refusals = [(text, built) for text, built in fresh if isinstance(text, str)]
    assert any(text.startswith("powers up to exponent") for text, _ in refusals)
    assert any(" power products need over 40 terms" in text for text, _ in refusals)
    refused = "normal form needs over 420 terms"
    assert fresh[-5] == ("the level-1 normal form needs over 420 terms", 0)
    assert [(refused in text, built > 0) for text, built in fresh[-4:]] == [
        (False, True), (False, True), (True, True), (True, True)]
    assert len(refusals) < len(fresh)
    kept = MultisetGrid.build(ring, [support])
    with monkeypatch.context() as high:
        high.setattr(polynomials, "MAX_BASIS_TERMS", 10**6)
        level_basis(kept, 30)
    assert len(kept.axes[0].powers.powers) == 31
    warm = [outcome(MultisetGrid.build(ring, [support] * n), t, f) for n, t, f in inputs]
    assert warm == fresh


def test_level_normal_form_builds_each_member_once(monkeypatch):
    # x1^20*x2^20 at level 2 on {0, 1}^2 cancels term after term by the
    # members g1^2, g1 g2 and g2^2, each built once however often it divides
    leads = _counting_member_builds(monkeypatch)
    grid = cube()
    f = P("x1^20*x2^20 + x1^7 - x2^9", nvars=2)
    assert level_normal_form(f, grid, 2) == level_normal_form_oracle(f, grid, 2)
    assert sorted(leads) == [(0, 4), (2, 2), (4, 0)]


def test_powers_of_a_monomial_axis_take_linear_time():
    # g = x1: each power is one term, built in d + 1 slots, not its degree
    # (quadratic before, ~33 s at level 50 000)
    grid = MultisetGrid.build(ZZ, [[0]])
    start = time.perf_counter()
    assert level_basis(grid, 50000).members == (P("x1^50000"),)
    assert level_normal_form(P("x1^60000 + x1^3"), grid, 60000) == P("x1^3")
    assert time.perf_counter() - start < 5


def test_kept_powers_are_bounded():
    grid = MultisetGrid.build(ZZ, [[0]])
    [member] = level_basis(grid, 5000).members
    assert member == P("x1^5000")
    powers = grid.axes[0].powers.powers
    assert sum(len(exps) for exps, _, _ in powers[2:]) <= polynomials.MAX_KEPT_POWER_TERMS
    # g = x1, so the powers g^2 .. g^2048 are kept, one term each: the
    # entries g^0 .. g^e and the e - 1 terms of g^2 .. g^e make 2e <= 4096
    assert len(powers) == polynomials.MAX_KEPT_POWER_TERMS // 2 + 1


def test_kept_powers_are_shared_safely_between_threads():
    ring = GF(83)  # an axis no other test keeps alive
    grid = MultisetGrid.build(ring, [[0, 1, 2]] * 2)
    g = P("x1^3 - 3*x1^2 + 2*x1", ring)
    gs = [P("x1^3 - 3*x1^2 + 2*x1", ring, nvars=2), P("x2^3 - 3*x2^2 + 2*x2", ring, nvars=2)]
    levels = list(range(1, 13)) * 3
    expected = {t: dict(_products(gs, t)) for t in set(levels)}
    results, errors = [], []

    def build(seed):
        try:
            for t in random.Random(seed).sample(levels, len(levels)):
                basis = level_basis(grid, t)
                results.append((t, dict(zip(basis.labels, basis.members))))
        except Exception as exc:  # reported by the assertions below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(results) == 6 * len(levels)
    assert all(members == expected[t] for t, members in results)
    # the kept table is whole: entry e is g^e with the running count of g^2 .. g^e
    powers = grid.axes[0].powers.powers
    assert len(powers) == 13
    count = 0
    for e, (exps, coeffs, held) in enumerate(powers):
        assert dict(zip([(a,) for a in exps], coeffs)) == (g ** e).terms
        count += len(exps) if e >= 2 else 0
        assert held == count


def test_level_basis_members():
    grid = cube()
    assert [g for _, g, _ in level_basis(grid, 0)] == [Poly.one(ZZ, 2)]
    t1 = level_basis(grid, 1)
    assert set(t1.labels) == {(1, 0), (0, 1)}
    assert t1.members[t1.labels.index((1, 0))] == P("x1^2 - x1", nvars=2)
    t2 = level_basis(grid, 2)
    assert len(t2) == 3 == comb(2 + 2 - 1, 2 - 1)
    g1 = P("x1^2 - x1", nvars=2)
    g2 = P("x2^2 - x2", nvars=2)
    assert t2.members[t2.labels.index((1, 1))] == g1 * g2
    assert t2.witnesses[t2.labels.index((2, 0))] == (4, 0)


AXIS_CONFIGS = [
    ([0], {0: 1}),
    ([0], {0: 2}),
    ([0, 1], {0: 1, 1: 1}),
    ([0, 1], {0: 1, 1: 2}),
    ([0, 1], {0: 2, 1: 1}),
    ([0, 1], {0: 2, 1: 2}),
]


def _root_power_product(ring, n, k, psi):
    x = variable(ring, n, k)
    g = Poly.one(ring, n)
    for u, m in psi.items():
        g = g * (x - Poly.constant(ring, n, u)) ** m
    return g


def _products(gs, t):
    """(alpha, prod g_k ** alpha_k) for sum(alpha) = t, alpha ascending."""
    n = len(gs)
    out = []
    for alpha in product(range(t + 1), repeat=n):
        if sum(alpha) == t:
            g = Poly.one(gs[0].ring, n)
            for gk, e in zip(gs, alpha):
                g = g * gk ** e
            out.append((alpha, g))
    return out


# Every one- and two-axis config, then a seeded sample of the 216 three-axis
# ones, where the level-1 bases are the groebner sweep's median op.  Over
# ZZ/6 some products of nonzero coefficients are 0, and the oracle prunes them.
@pytest.mark.parametrize("ring", [ZZ, GF(5), QQ, Zmod(6)], ids=str)
@pytest.mark.parametrize(
    "combo",
    [(c,) for c in AXIS_CONFIGS] + list(product(AXIS_CONFIGS, repeat=2))
    + random.Random(19).sample(list(product(AXIS_CONFIGS, repeat=3)), 12),
)
def test_basis_members_pinned(ring, combo):
    n = len(combo)
    grid = MultisetGrid.build(ring, [S for S, _ in combo], [psi for _, psi in combo])
    pgrid = PuncturedGrid.build(grid, [[0]] * n)
    gs = [_root_power_product(ring, n, k, psi) for k, (_, psi) in enumerate(combo)]
    off = Poly.one(ring, n)
    for k, (_, psi) in enumerate(combo):
        off = off * _root_power_product(ring, n, k, {u: m for u, m in psi.items() if u != 0})
    degs = [sum(psi.values()) for _, psi in combo]
    for t in range(4):
        expected = _products(gs, t)
        basis = level_basis(grid, t)
        assert list(basis.labels) == [alpha for alpha, _ in expected]
        assert list(basis.members) == [g for _, g in expected]
        assert list(basis.witnesses) == [
            tuple(d * e for d, e in zip(degs, alpha)) for alpha, _ in expected
        ]
        if t:
            lower = [(alpha, off * g) for alpha, g in _products(gs, t - 1)]
            mixed = mixed_basis(pgrid, t)
            assert list(mixed.labels) == [alpha for alpha, _ in lower + expected]
            assert list(mixed.members) == [g for _, g in lower + expected]


def test_power_product_of_no_power_is_one():
    # every exponent 0: no non-unit factor, so the product is the constant one
    gs = [P("x1^2 - x1", nvars=2), P("x2 + 3", nvars=2)]
    assert monic_power_product(gs, [(0, 0)]) == [(Poly.one(ZZ, 2), (0, 0))]


def test_level_basis_prunes_zero_products():
    # over ZZ/6, (x1 + 2) * (x2 + 3) = x1*x2 + 3*x1 + 2*x2 + 6 and 6 = 0
    ring = Zmod(6)
    basis = level_basis(MultisetGrid.build(ring, [[4], [3]]), 2)
    assert list(basis.labels) == [(0, 2), (1, 1), (2, 0)]
    assert list(basis.members) == [
        P(text, ring, nvars=2) for text in ("x2^2 + 3", "x1*x2 + 3*x1 + 2*x2", "x1^2 + 4*x1 + 4")
    ]


def test_negative_level_rejected():
    grid = MultisetGrid.build(ZZ, [[0, 1]])
    x1 = P("x1")
    for t in (-1, 0.5):
        with pytest.raises(ValueError):
            level_membership(x1, grid, t)
        with pytest.raises(ValueError):
            punctured_membership(x1, PuncturedGrid.build(grid, [[0]]), t)


def test_level_basis_sizes():
    grid = MultisetGrid.build(ZZ, [[0, 1], [0], [0, 1]], [{0: 2, 1: 1}, {0: 1}, None])
    for t in range(4):
        assert len(level_basis(grid, t)) == comb(3 + t - 1, 3 - 1)


def test_level_membership_examples():
    grid = cube()
    assert level_membership(P("x1^2 - x1", nvars=2), grid, 1)
    assert not level_membership(P("x1*x2", nvars=2), grid, 1)
    assert level_membership(P("x1*x2 - 17", nvars=2), grid, 0)


def test_level_membership_gate():
    grid = MultisetGrid.build(Zmod(6), [[0, 3]])
    with pytest.raises(Inapplicable):
        level_membership(P("x1", ring=Zmod(6)), grid, 1)


def test_level_membership_multiplicities():
    # double root at 0 demands vanishing of value and derivative
    grid = MultisetGrid.build(ZZ, [[0]], [{0: 2}])
    assert level_membership(P("x1^2"), grid, 1)
    assert not level_membership(P("x1"), grid, 1)
    assert level_membership(P("x1^5 - 7*x1^4"), grid, 2)
    assert not level_membership(P("x1^3"), grid, 2)


def test_level_certificate_examples():
    grid = cube()
    g1 = P("x1^2 - x1", nvars=2)
    g2 = P("x2^2 - x2", nvars=2)
    cert = level_certificate(g1 * g2, grid, 2)
    assert cert.quotient_map[(1, 1)] == Poly.one(ZZ, 2)
    assert cert.remainder.is_zero() and cert.support_contained()
    assert cert.degree_report == {"leading_cover": True}

    cert1 = level_certificate(g1, grid, 1)
    assert cert1.quotient_map[(1, 0)] == Poly.one(ZZ, 2)

    line = MultisetGrid.build(ZZ, [[0, 1]])
    f = P("x1^2 - x1") * P("x1 + 5")
    cert2 = level_certificate(f, line, 1)
    assert cert2.quotient_map[(1,)] == P("x1 + 5")
    assert cert2.support_contained() and cert2.identity_holds()


def test_level_certificate_rejects_non_member():
    with pytest.raises(NotMember):
        level_certificate(P("x1*x2", nvars=2), cube(), 1)


def test_level_certificate_needs_no_grid_scan(monkeypatch):
    # membership is decided by the level normal form, so no Taylor shift runs
    def no_shift(*args):
        raise AssertionError("taylor_shift called")

    monkeypatch.setattr(multiset_ideals, "taylor_shift", no_shift)
    g1, g2 = P("x1^2 - x1", nvars=2), P("x2^2 - x2", nvars=2)
    cert = level_certificate(g1 * g2 * P("x1 + 3*x2", nvars=2), cube(), 2)
    assert cert.remainder.is_zero() and cert.support_contained()
    with pytest.raises(NotMember):
        level_certificate(P("x1*x2", nvars=2), cube(), 1)
    # nor is any grid point counted: {0,1}^21 has more than MAX_GRID_POINTS
    huge = cube(n=21)
    with pytest.raises(ScaleExceeded):
        level_membership(P("x1^2 - x1", nvars=21), huge, 1)
    cert = level_certificate(P("x1^2 - x1", nvars=21), huge, 1)
    assert cert.quotient_map[(1,) + (0,) * 20] == Poly.one(ZZ, 21)


def test_level_certificate_checks_t_operand_and_condition_d_in_order():
    # 2^21 points, none of them counted: Condition (D) fails on every axis
    bad = MultisetGrid.build(Zmod(6), [[0, 3]] * 21)
    with pytest.raises(ValueError, match="t must be"):
        level_certificate(P("x1", ZZ, nvars=21), bad, -1)
    with pytest.raises(RingMismatch):
        level_certificate(P("x1", ZZ, nvars=21), bad, 1)
    with pytest.raises(Inapplicable):
        level_certificate(P("x1", Zmod(6), nvars=21), bad, 1)


def test_condition_d_matches_zero_divisor_scan(monkeypatch):
    # Condition (D): no difference of two support values is a zero divisor
    assert MultisetGrid.build(Zmod(6), [[0, 3], [0, 1]]).condition_d() == (False, True)
    assert MultisetGrid.build(ZZ, [[-5, 0, 7, 12]]).condition_d() == (True,)
    for m in range(2, 13):
        for size in range(5):
            for S in combinations(range(m), size):
                brute = not any((b - a) * w % m == 0
                                for a, b in combinations(S, 2) for w in range(1, m))
                grid = MultisetGrid.build(Zmod(m), [S])
                assert grid.axes[0].condition_d is brute
                assert grid.condition_d() == (brute,)
    # decided when the axis is interned: a gated call asks the ring nothing
    grid = MultisetGrid.build(Zmod(6), [[0, 1]])
    monkeypatch.setattr(Ring, "is_zero_divisor", lambda self, a: pytest.fail("recomputed"))
    assert grid.condition_d() == (True,)
    assert level_certificate(P("x1^2 - x1", Zmod(6)), grid, 1).remainder.is_zero()


def test_level_normal_form_examples():
    line = MultisetGrid.build(ZZ, [[0, 1]])
    assert level_normal_form(P("x1^2"), line, 1) == P("x1")
    member = P("x1^2 - x1") * P("x1^3 - 4")
    assert level_normal_form(member, line, 1).is_zero()
    grid = cube()
    nf = level_normal_form(P("x1^3*x2", nvars=2), grid, 1)
    assert nf == P("x1*x2", nvars=2)
    f = P("x1^3*x2 + 2*x1 - 1", nvars=2)
    nf = level_normal_form(f, grid, 1)
    for a in product([0, 1], repeat=2):
        assert f.evaluate(a) == nf.evaluate(a)


def test_level_normal_form_builds_no_basis_and_divides_nothing(monkeypatch):
    grid = MultisetGrid.build(ZZ, [[0, 1], [0, 1, 2]], [{0: 2, 1: 1}, None])
    f = P("x1^7*x2^5 - 3*x1^4*x2 + x1*x2^6 + 2", nvars=2)
    expected = {t: level_normal_form_oracle(f, grid, t) for t in range(4)}

    def refuse(*args, **kwargs):
        raise AssertionError("the level normal form built a basis or divided")

    monkeypatch.setattr(multiset_ideals, "level_basis", refuse)
    monkeypatch.setattr(multiset_ideals, "reduce", refuse)
    for t, nf in expected.items():
        assert level_normal_form(f, grid, t) == nf
    assert not expected[3].is_zero()


def test_level_membership_agrees_with_normal_form(rng):
    for ring in (ZZ, GF(5)):
        grid = MultisetGrid.build(ring, [[0, 1], [0, 1]], [{0: 2, 1: 1}, None])
        for t in (0, 1, 2):
            for _ in range(40):
                f = random_poly(rng, ring, 2, max_deg=5)
                vanish = level_membership(f, grid, t)
                nf_zero = level_normal_form(f, grid, t).is_zero()
                assert vanish == nf_zero


def test_level_basis_buchberger_certified():
    grid = MultisetGrid.build(ZZ, [[0, 1], [0, 1]], [{0: 2, 1: 2}, None])
    for t in (1, 2, 3):
        assert buchberger_certifies(level_basis(grid, t))


def test_punctured_membership_examples():
    pg = punctured_cube()
    f = P("x1*x2 - x1 - x2 + 1", nvars=2)  # (x1-1)(x2-1)
    assert punctured_membership(f, pg, 1)
    assert not punctured_membership(P("1", nvars=2), pg, 1)


def test_empty_puncture_equals_level_membership(rng):
    grid = cube()
    pg = PuncturedGrid.build(grid, [[], [0]])
    for _ in range(30):
        f = random_poly(rng, ZZ, 2, max_deg=4)
        assert punctured_membership(f, pg, 1) == level_membership(f, grid, 1)


def test_punctured_analysis_product_example():
    for n in (1, 2, 3):
        pg = punctured_cube(n=n)
        f = Poly.one(ZZ, n)
        for k in range(n):
            f = f * (variable(ZZ, n, k) - Poly.one(ZZ, n))
        report = punctured_analysis(f, pg, 1)
        assert report.eta == f
        assert report.cofactor == Poly.one(ZZ, n)
        assert report.nonvanishing_point == (0,) * n
        assert report.degree_bound == n
        assert report.bound_holds and report.degree_eta == n


def test_punctured_analysis_vanishing_member():
    pg = punctured_cube()
    g1 = P("x1^2 - x1", nvars=2)
    report = punctured_analysis(g1, pg, 1)
    assert report.eta.is_zero()
    assert report.nonvanishing_point is None
    assert report.degree_bound is None and report.bound_holds is None


def test_punctured_analysis_multiplicity_example():
    grid = MultisetGrid.build(ZZ, [[0, 1, 2]])
    pg = PuncturedGrid.build(grid, [[0]])
    f = P("x1 - 1") ** 2 * P("x1 - 2") ** 2 * P("x1")
    assert punctured_membership(f, pg, 2)
    report = punctured_analysis(f, pg, 2)
    # the degree fact holds, but f vanishes on the whole grid so the
    # witness-gated clause of the report stays empty
    assert report.degree_eta >= (2 - 1) * 2 + 2 == 4
    assert report.nonvanishing_point is None and report.degree_bound is None

    g = P("x1 - 1") ** 2 * P("x1 - 2") ** 2 * P("x1 + 1")
    report2 = punctured_analysis(g, pg, 2)
    assert report2.nonvanishing_point == (0,)
    assert report2.degree_bound == 4 and report2.bound_holds
    assert report2.degree_eta >= 4


def test_punctured_divisibility_on_sampled_members(rng):
    for n in (1, 2):
        pg = punctured_cube(n=n)
        basis = mixed_basis(pg, 2)
        for _ in range(20):
            f = Poly.zero(ZZ, n)
            for g in basis.members:
                f = f + random_poly(rng, ZZ, n, max_deg=2, max_terms=2) * g
            assert punctured_membership(f, pg, 2)
            report = punctured_analysis(f, pg, 2)
            # cofactor exactness is the content: eta == cofactor * divisor
            assert report.cofactor * report.divisor == report.eta


def test_mixed_basis_layers():
    pg = punctured_cube(n=1)
    fam = mixed_basis(pg, 2)
    members = dict(zip(fam.labels, fam.members))
    g = P("x1^2 - x1")
    assert members[(1,)] == g * P("x1 - 1")
    assert members[(2,)] == g * g
    assert fam.witnesses[fam.labels.index((1,))] == (3,)

    t1 = mixed_basis(pg, 1)
    assert set(t1.labels) == {(0,), (1,)}
    assert dict(zip(t1.labels, t1.members))[(0,)] == P("x1 - 1")

    full = PuncturedGrid.build(cube(n=1), [[0, 1]])
    fam_full = mixed_basis(full, 2)
    assert dict(zip(fam_full.labels, fam_full.members))[(1,)] == g


def test_mixed_membership_examples(rng):
    pg = punctured_cube()
    for _ in range(20):
        f = random_poly(rng, ZZ, 2, max_deg=3)
        assert mixed_membership(f, pg, 1) == punctured_membership(f, pg, 1)
    fam = mixed_basis(pg, 2)
    for g in fam.members:
        assert mixed_membership(g, pg, 2)
    assert not mixed_membership(P("1", nvars=2), pg, 1)


def test_mixed_certificate_examples():
    pg = punctured_cube()
    fam = mixed_basis(pg, 2)
    member = dict(zip(fam.labels, fam.members))[(0, 1)]
    cert = mixed_certificate(member, pg, 2)
    assert cert.quotient_map[(0, 1)] == Poly.one(ZZ, 2)
    assert cert.remainder.is_zero() and cert.support_contained()

    g1 = P("x1^2 - x1", nvars=2)
    off = P("x1 - 1", nvars=2) * P("x2 - 1", nvars=2)
    cert2 = mixed_certificate(g1 * off, pg, 2)
    assert cert2.remainder.is_zero() and cert2.identity_holds()
    assert any(not q.is_zero() for l, q in cert2.quotient_map.items() if sum(l) == 1)

    zero = mixed_certificate(Poly.zero(ZZ, 2), pg, 2)
    assert all(q.is_zero() for q in zero.quotients)


def test_mixed_certificate_rejects_non_member():
    with pytest.raises(NotMember):
        mixed_certificate(P("1", nvars=2), punctured_cube(), 1)


def test_min_extra_degree_examples():
    pg = punctured_cube()
    value, witness = min_extra_degree(pg, 2)
    assert value == 4
    expected = P("x1^2 - x1", nvars=2) * P("x1 - 1", nvars=2) * P("x2 - 1", nvars=2)
    assert witness == expected

    value1, witness1 = min_extra_degree(pg, 1)
    assert value1 == 2
    assert witness1 == P("x1 - 1", nvars=2) * P("x2 - 1", nvars=2)

    full = PuncturedGrid.build(cube(), [[0, 1], [0, 1]])
    value_full, witness_full = min_extra_degree(full, 3)
    assert value_full == (3 - 1) * 2
    assert witness_full == P("x1^2 - x1", nvars=2) ** 2


def test_min_extra_degree_guards():
    with pytest.raises(EmptyPuncture):
        min_extra_degree(PuncturedGrid.build(cube(), [[0], []]), 1)
    bad = PuncturedGrid.build(
        MultisetGrid.build(Zmod(6), [[0, 3]]), [[0]]
    )
    with pytest.raises(Inapplicable):
        min_extra_degree(bad, 1)


def test_min_extra_degree_needs_no_level_scan(monkeypatch):
    # the witness is kept out of I_t by its normal form, not by the grid scan
    def no_scan(*args):
        raise AssertionError("level_membership called")

    monkeypatch.setattr(multiset_ideals, "level_membership", no_scan)
    assert min_extra_degree(punctured_cube(), 2)[0] == 4
    assert min_extra_degree(PuncturedGrid.build(cube(), [[0, 1], [0, 1]]), 3)[0] == 4


def test_punctured_and_mixed_need_no_grid_scan(monkeypatch):
    # both ideals are decided by level normal forms on subgrids
    def no_scan(*args):
        raise AssertionError("grid scan called")

    monkeypatch.setattr(multiset_ideals, "_grid_condition", no_scan)
    monkeypatch.setattr(multiset_ideals, "taylor_shift", no_scan)
    monkeypatch.setattr(polynomials, "taylor_shift", no_scan)
    pg = punctured_cube()
    member = P("x1*x2 - x1 - x2 + 1", nvars=2)  # (x1 - 1)(x2 - 1)
    with monkeypatch.context() as m:
        m.setattr(MultisetGrid, "grid_points", no_scan)
        assert punctured_membership(member, pg, 1)
        assert not punctured_membership(member, pg, 2)
        assert mixed_membership(member, pg, 1)
        assert not mixed_membership(P("1", nvars=2), pg, 1)
    assert punctured_analysis(member, pg, 1).bound_holds
    assert mixed_certificate(member, pg, 1).remainder.is_zero()
    assert min_extra_degree(pg, 2)[0] == 4


def _outcome(decide, f, pgrid, t):
    """``decide``'s verdict, or the type of the error it raises."""
    try:
        return decide(f, pgrid, t)
    except (Inapplicable, ValueError) as exc:
        return type(exc)


def test_subgrid_normal_forms_match_the_grid_scans():
    # seeded draws of punctured grids, E_k from empty to full; a third of
    # the operands are sums of multiples of mixed-basis members, half of
    # those with one member perturbed by a term
    rng = random.Random(27)
    verdicts = []
    for _ in range(300):
        ring = rng.choice((ZZ, GF(5), GF(7), Zmod(6)))
        n = rng.randint(1, 3)
        supports = [rng.sample(range(5), rng.randint(1, 3)) for _ in range(n)]
        psis = [{u: rng.randint(1, 2) for u in S} for S in supports]
        punctures = [rng.sample(S, rng.randint(0, len(S))) for S in supports]
        pg = PuncturedGrid.build(MultisetGrid.build(ring, supports, psis), punctures)
        t = rng.randint(0, 3)
        for _ in range(2):
            if rng.random() < 1 / 3:
                members = list(mixed_basis(pg, max(t, 1)).members)
                if rng.random() < 0.5:
                    term = random_poly(rng, ring, n, max_deg=2, max_terms=1)
                    members[rng.randrange(len(members))] += term
                f = Poly.zero(ring, n)
                for g in rng.sample(members, min(3, len(members))):
                    f += random_poly(rng, ring, n, max_deg=1, max_terms=2) * g
            else:
                f = random_poly(rng, ring, n, max_deg=4)
            for engine, scan in ((punctured_membership, punctured_scan),
                                 (mixed_membership, mixed_scan)):
                verdict = _outcome(engine, f, pg, t)
                assert verdict == _outcome(scan, f, pg, t), (engine.__name__, f, pg, t)
                verdicts.append(verdict)
    assert {True, False, Inapplicable, ValueError} <= set(verdicts)


def test_intersection_identity_membershipwise(rng):
    # punctured intersection and the puncture-grid level ideal cut out
    # exactly the full-grid level ideal
    grid = cube()
    pg = punctured_cube()
    egrid = MultisetGrid.build(ZZ, [[0], [0]])
    for t in (1, 2):
        for _ in range(50):
            f = random_poly(rng, ZZ, 2, max_deg=4)
            lhs = punctured_membership(f, pg, t) and level_membership(f, egrid, t)
            rhs = level_membership(f, grid, t)
            assert lhs == rhs


def test_mixed_ideal_three_descriptions(rng):
    # mixed membership == punctured at t AND puncture-grid level at t-1;
    # and sums from the two-layer basis are always members
    pg = punctured_cube()
    egrid = MultisetGrid.build(ZZ, [[0], [0]])
    t = 2
    for _ in range(50):
        f = random_poly(rng, ZZ, 2, max_deg=4)
        direct = mixed_membership(f, pg, t)
        via_intersection = punctured_membership(f, pg, t) and level_membership(
            f, egrid, t - 1
        )
        assert direct == via_intersection
    fam = mixed_basis(pg, t)
    for _ in range(20):
        f = Poly.zero(ZZ, 2)
        for g in fam.members:
            f = f + random_poly(rng, ZZ, 2, max_deg=1, max_terms=2) * g
        assert mixed_membership(f, pg, t)


def test_outside_level_ideal_detector(rng):
    # a mixed member escapes the level ideal exactly when some puncture
    # point carries a shifted coefficient at floor-sum level t-1
    pg = punctured_cube()
    t = 2
    fam = mixed_basis(pg, t)
    for _ in range(40):
        f = Poly.zero(ZZ, 2)
        for g in fam.members:
            f = f + random_poly(rng, ZZ, 2, max_deg=1, max_terms=2) * g
        in_level = level_membership(f, pg, t)
        detector = False
        for v in pg.puncture_grid().grid_points():
            psi = pg.psi_at(v)
            for gamma in product(range(2 * t), repeat=2):
                if sum(g // m for g, m in zip(gamma, psi)) == t - 1:
                    if taylor_shift(f, v).coeff(gamma) != 0:
                        detector = True
        assert (not in_level) == detector or f.is_zero()


def test_axiswise_divisibility_product(rng):
    # when every axis polynomial divides f, so does their product
    gs = [P("x1^2 - x1", nvars=2), P("x2^3 - x2", nvars=2)]
    prod_poly = gs[0] * gs[1]
    for _ in range(20):
        h = random_poly(rng, ZZ, 2, max_deg=2)
        f = prod_poly * h
        for g in gs:
            assert reduce(f, MonicFamily.build([g])).remainder.is_zero()
        out = reduce(f, MonicFamily.build([prod_poly]))
        assert out.remainder.is_zero()
        assert out.quotients[0] == h


def test_partial_specialization_divisibility():
    # at a common root point, the single-axis specialization of the
    # cofactor keeps the off-puncture factor to the power t-1
    pg = punctured_cube()
    t = 2
    fam = mixed_basis(pg, t)
    member = dict(zip(fam.labels, fam.members))[(1, 0)]
    report = punctured_analysis(member, pg, t)
    phi = report.cofactor
    ring = pg.ring
    for u in pg.grid_points():
        for m in range(2):
            others = [k for k in range(2) if k != m]
            a = ring.one
            for k in others:
                a = ring.mul(a, off_poly(pg, k).evaluate(u))
            specialized = scale(partial_evaluate(phi, {k: u[k] for k in others}), a)
            power = off_poly(pg, m) ** (t - 1)
            rem = reduce(specialized, MonicFamily.build([power])).remainder
            assert rem.is_zero()


def test_grid_points_are_counted_up_front():
    # 10^6 points pass, one axis value more does not; nothing is listed first
    at_limit = MultisetGrid.build(ZZ, [range(10)] * 6)
    assert MAX_GRID_POINTS == 10**6
    assert next(at_limit.grid_points()) == (0,) * 6
    over = MultisetGrid.build(ZZ, [range(10)] * 5 + [range(11)])
    for scan in (over.grid_points, lambda: over.nonzero_points(P("x1", nvars=6))):
        with pytest.raises(ScaleExceeded, match="1100000 grid points exceed the limit of 1000000"):
            scan()
    with pytest.raises(ScaleExceeded):
        level_membership(Poly.one(ZZ, 6), over, 1)


def test_nonzero_points():
    grid = MultisetGrid.build(Zmod(6), [[0, 1, 2], [0, 3]])
    f = P("2*x1*x2 + 3*x1", ring=Zmod(6))
    # 2*x1*x2 + 3*x1 at (x1, x2): (1,0) -> 3, (2,0) -> 0, (1,3) -> 3, (2,3) -> 0 mod 6
    assert list(grid.nonzero_points(f)) == [(1, 0), (1, 3)]
    assert list(grid.nonzero_points(Poly.zero(Zmod(6), 2))) == []


def test_listings_past_the_cached_size_are_listed_afresh():
    # C(92, 2) = 4 186 vectors, past MAX_CACHED_LISTING: listed, not cached
    assert comb(92, 2) > multiset_ideals.MAX_CACHED_LISTING
    cached = multiset_ideals._small_listing.cache_info().currsize
    listing = multiset_ideals._exponent_vectors(90, 3)
    assert listing == tuple(compositions(90, 3))
    assert multiset_ideals._exponent_vectors(90, 3) is not listing
    assert multiset_ideals._small_listing.cache_info().currsize == cached
