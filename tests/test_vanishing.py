from itertools import product

import pytest

from combnull import (
    ZZ,
    InfiniteComplement,
    MonicFamily,
    MultiplicityTable,
    MultisetGrid,
    NotCertified,
    NotInIdeal,
    Poly,
    PuncturedGrid,
    ScaleExceeded,
    VanishingSpec,
    Zmod,
    certify_groebner,
    grid_staircase_count,
    groebner_decompose,
    in_vanishing_ideal,
    leading_staircase_count,
    multiplicity_family,
)
from conftest import P, random_poly


def classical_spec(ring=ZZ):
    # one variable, S = {0, 1}, first-order vanishing at both points
    return VanishingSpec.build(MultisetGrid.build(ring, [[0, 1]]), {(0,): {(1,)}, (1,): {(1,)}})


def test_spec_is_its_grid():
    # over ZZ/6 the axes canonicalize to {0, 3}, which fails Condition (D),
    # and {1, 2}, which holds it
    R = Zmod(6)
    axes = [[3, 0, 9], [7, 2]]
    grid = MultisetGrid.build(R, axes)
    B = {point: {(1, 0), (0, 1)} for point in grid.grid_points()}
    spec = VanishingSpec.build(MultisetGrid.build(R, axes), B)
    assert spec.axes == grid.axes
    assert spec.condition_d() == grid.condition_d() == (False, True)
    assert list(spec.grid_points()) == list(grid.grid_points())
    assert all(set(axis.psi.values()) == {1} for axis in spec.axes)


def test_membership_examples():
    spec = classical_spec()
    assert in_vanishing_ideal(Poly.zero(ZZ, 1), spec)
    point_spec = VanishingSpec.build(MultisetGrid.build(ZZ, [[0]]), {(0,): {(1,)}})
    assert in_vanishing_ideal(P("x1"), point_spec)
    assert not in_vanishing_ideal(P("1"), point_spec)
    assert in_vanishing_ideal(P("x1^2 - x1"), spec)
    assert not in_vanishing_ideal(P("x1 - 1"), spec)


def test_spec_requires_finite_complements():
    with pytest.raises(InfiniteComplement):
        VanishingSpec.build(MultisetGrid.build(ZZ, [[0], [0]]), {(0, 0): {(1, 1)}})


def test_spec_rejects_off_grid_points():
    B = {(0,): {(1,)}, (1,): {(1,)}, (5,): {(9,)}}
    with pytest.raises(ValueError, match=r"\(5,\)"):
        VanishingSpec.build(MultisetGrid.build(ZZ, [[0, 1]]), B)
    with pytest.raises(ValueError, match=r"\(0,\)"):
        VanishingSpec.build(MultisetGrid.build(ZZ, [[]]), {(0,): {(1,)}})


def test_spec_takes_no_psi():
    # B carries the multiplicities, so the grid must have every psi 1
    B = {(0,): {(1,)}, (1,): {(1,)}}
    with pytest.raises(ValueError, match="takes no psi"):
        VanishingSpec.build(MultisetGrid.build(ZZ, [[0, 1]], [{0: 2, 1: 1}]), B)
    spec = VanishingSpec.build(MultisetGrid.build(ZZ, [[0, 1]], [{0: 1, 1: 1}]), B)
    assert spec == classical_spec()


def test_spec_takes_no_puncture_set():
    # a spec built on a punctured grid would drop its E
    B = {(0,): {(1,)}, (1,): {(1,)}}
    pgrid = PuncturedGrid.build(MultisetGrid.build(ZZ, [[0, 1]]), [[0]])
    with pytest.raises(ValueError, match="takes no puncture set E"):
        VanishingSpec.build(pgrid, B)


def test_punctured_grid_takes_no_spec():
    # the mirror: a punctured grid built on a spec would drop its B
    with pytest.raises(ValueError, match="takes no vanishing table B"):
        PuncturedGrid.build(classical_spec(), [[0]])


def test_grid_staircase_count():
    assert grid_staircase_count(classical_spec()) == 2
    empty = VanishingSpec.build(MultisetGrid.build(ZZ, [[], [0]]), {})
    assert grid_staircase_count(empty) == 0
    assert empty.empty_grid
    spec = VanishingSpec.build(
        MultisetGrid.build(ZZ, [[0, 1], [0]]),
        {pt: {(1, 0), (0, 1)} for pt in [(0, 0), (1, 0)]},
    )
    assert grid_staircase_count(spec) == 2


def test_staircase_counts_refuse_huge_boxes():
    # one grid point whose B_a boxes 10^12 exponent vectors, and a family
    # whose leading exponents box as many
    wide = {(10**4, 0, 0), (0, 10**4, 0), (0, 0, 10**4)}
    spec = VanishingSpec.build(MultisetGrid.build(ZZ, [[0]] * 3), {(0, 0, 0): wide})
    with pytest.raises(ScaleExceeded, match="box points exceed the limit"):
        grid_staircase_count(spec)
    family = MonicFamily.build([Poly(ZZ, 3, {theta: 1}) for theta in sorted(wide)])
    with pytest.raises(ScaleExceeded, match="box points exceed the limit"):
        leading_staircase_count(family)


def test_leading_staircase_count():
    G = MonicFamily.build([P("x1^2 - x1", nvars=2), P("x2^2 - x2", nvars=2)])
    assert leading_staircase_count(G) == 4
    with_unit = MonicFamily.build([P("1", nvars=2)])
    assert leading_staircase_count(with_unit) == 0
    single = MonicFamily.build([P("x1 - 1")])
    assert leading_staircase_count(single) == 1
    # no witness is a power of x2 alone
    assert leading_staircase_count(MonicFamily.build([P("x1^2 - x1", nvars=2)])) is None
    assert leading_staircase_count(MonicFamily.build([P("x1*x2 - 1")])) is None


def test_certify_classical_case():
    spec = classical_spec()
    G = MonicFamily.build([P("x1^2 - x1")])
    report = certify_groebner(spec, G)
    assert report.grid_count == 2 and report.leading_count == 2
    assert report.verdict == "groebner" and report.groebner is True


def test_certify_overshooting_basis():
    spec = classical_spec()
    G = MonicFamily.build([P("x1^3 - x1") * Poly.one(ZZ, 1)])
    # x1^3 - x1 = x1 (x1-1)(x1+1) vanishes at 0 and 1 to first order
    report = certify_groebner(spec, G)
    assert report.leading_count == 3
    assert report.verdict == "not_groebner" and report.groebner is False


def test_certify_inapplicable_on_condition_d_failure():
    ring = Zmod(6)
    spec = VanishingSpec.build(MultisetGrid.build(ring, [[0, 3]]), {(0,): {(1,)}, (3,): {(1,)}})
    g = P("x1^2 - 3*x1", ring=ring)
    assert in_vanishing_ideal(g, spec)
    report = certify_groebner(spec, MonicFamily.build([g]))
    assert report.verdict == "inapplicable"
    assert report.groebner is None
    assert report.condition_d == (False,)


def test_certify_infinite_leading_staircase():
    # The grid count is finite, so a family whose witnesses bound no power
    # of x2 is no Groebner basis of I(spec): not_groebner under Condition
    # (D), inapplicable without it; zeta2 is reported as None either way.
    for ring, values, g, verdict in (
        (ZZ, [0, 1], "x1^2 - x1", "not_groebner"),
        (Zmod(6), [0, 3], "x1^2 - 3*x1", "inapplicable"),
    ):
        grid = MultisetGrid.build(ring, [values, [0, 1]])
        spec = VanishingSpec.build(grid, {pt: {(1, 0), (0, 1)} for pt in grid.grid_points()})
        report = certify_groebner(spec, MonicFamily.build([P(g, ring, nvars=2)]))
        assert (report.grid_count, report.leading_count, report.verdict) == (4, None, verdict)
        assert report.to_json_dict()["zeta2"] is None
        assert report.groebner is {"not_groebner": False, "inapplicable": None}[verdict]


def test_empty_family_has_an_infinite_leading_staircase():
    # An empty family generates the zero ideal, whose staircase is all of
    # N^n: not_groebner under Condition (D), inapplicable without it.
    empty = MonicFamily.build([])
    assert leading_staircase_count(empty) is None
    ring = Zmod(6)
    without_d = VanishingSpec.build(MultisetGrid.build(ring, [[0, 3]]),
                                    {(0,): {(1,)}, (3,): {(1,)}})
    for spec, f, verdict in (
        (classical_spec(), P("x1^2 - x1"), "not_groebner"),
        (without_d, P("x1^2 - 3*x1", ring=ring), "inapplicable"),
    ):
        report = certify_groebner(spec, empty)
        assert (report.grid_count, report.leading_count, report.verdict) == (2, None, verdict)
        with pytest.raises(NotCertified):
            groebner_decompose(f, spec, empty)


def test_certify_rejects_non_members():
    spec = classical_spec()
    with pytest.raises(NotInIdeal):
        certify_groebner(spec, MonicFamily.build([P("x1^2 - 1")]))


def test_decompose_worked_example():
    spec = classical_spec()
    G = MonicFamily.build([P("x1^2 - x1")])
    out = groebner_decompose(P("x1^3 - x1"), spec, G)
    assert out.quotients[0] == P("x1 + 1")
    assert out.remainder.is_zero()
    member = G.members[0]
    unit = groebner_decompose(member, spec, G)
    assert unit.quotients[0] == Poly.one(ZZ, 1)
    zero = groebner_decompose(Poly.zero(ZZ, 1), spec, G)
    assert all(q.is_zero() for q in zero.quotients)


def test_decompose_guards():
    spec = classical_spec()
    G3 = MonicFamily.build([P("x1^3 - x1")])
    with pytest.raises(NotCertified):
        groebner_decompose(P("x1^3 - x1"), spec, G3)
    G = MonicFamily.build([P("x1^2 - x1")])
    with pytest.raises(NotInIdeal):
        groebner_decompose(P("x1 + 1"), spec, G)


def test_multiplicity_family_classical():
    table = MultiplicityTable(1, ("a",), {(0, 0, "a"): 1, (0, 1, "a"): 1})
    family, spec = multiplicity_family(ZZ, [[0, 1]], table)
    assert family.members[0] == P("x1^2 - x1")
    assert family.witnesses[0] == (2,)
    assert spec.B[(0,)] == {(1,)}
    assert spec.B[(1,)] == {(1,)}
    report = certify_groebner(spec, family)
    assert report.verdict == "groebner"


def test_multiplicity_family_zero_member():
    table = MultiplicityTable(1, ("a", "b"), {(0, 0, "a"): 2})
    family, spec = multiplicity_family(ZZ, [[0]], table)
    assert family.members[1] == Poly.one(ZZ, 1)
    assert family.witnesses[1] == (0,)
    assert spec.B[(0,)] == {(2,), (0,)}


def test_multiplicity_family_two_axes():
    table = MultiplicityTable(
        2,
        (1, 2),
        {
            (0, 0, 1): 1,
            (0, 1, 1): 1,
            (1, 0, 2): 1,
            (1, 1, 2): 1,
        },
    )
    family, spec = multiplicity_family(ZZ, [[0, 1], [0, 1]], table)
    assert family.members[0] == P("x1^2 - x1", nvars=2)
    assert family.members[1] == P("x2^2 - x2", nvars=2)
    for pt in spec.grid_points():
        assert spec.B[pt] == {(1, 0), (0, 1)}
    assert certify_groebner(spec, family).verdict == "groebner"


def _sweep_tables(n, sizes, n_lambdas, max_eps):
    axes = [list(range(s)) for s in sizes]
    labels = tuple(range(n_lambdas))
    keys = [(i, u, lam) for i in range(n) for u in axes[i] for lam in labels]
    for values in product(range(max_eps + 1), repeat=len(keys)):
        yield axes, MultiplicityTable(n, labels, dict(zip(keys, values)))


def test_grid_count_never_exceeds_leading_count_small_exhaustive():
    # one-variable slice of the sweep is fully enumerable
    checked = 0
    for sizes in ([1], [2]):
        for n_lambdas in (1, 2):
            for axes, table in _sweep_tables(1, sizes, n_lambdas, 2):
                try:
                    family, spec = multiplicity_family(ZZ, axes, table)
                except InfiniteComplement:
                    continue
                z2 = leading_staircase_count(family)
                if z2 is None:
                    continue
                z1 = grid_staircase_count(spec)
                assert z1 <= z2, (table.values, z1, z2)
                checked += 1
    assert checked > 50


def test_grid_count_never_exceeds_leading_count_sampled(rng):
    # randomized coverage of the larger two-variable range
    for _ in range(400):
        n = 2
        sizes = [rng.randint(1, 2) for _ in range(n)]
        labels = tuple(range(rng.randint(1, 3)))
        axes = [list(range(s)) for s in sizes]
        values = {
            (i, u, lam): rng.randint(0, 2)
            for i in range(n)
            for u in axes[i]
            for lam in labels
        }
        table = MultiplicityTable(n, labels, values)
        try:
            family, spec = multiplicity_family(ZZ, axes, table)
        except InfiniteComplement:
            continue
        z2 = leading_staircase_count(family)
        if z2 is None:
            # an infinite leading staircase bounds nothing; the comparison
            # is only made when both counts are finite
            continue
        assert grid_staircase_count(spec) <= z2


def test_ideal_closure_sampled(rng):
    spec = VanishingSpec.build(
        MultisetGrid.build(ZZ, [[0, 1], [0, 1]]),
        {pt: {(1, 0), (0, 1)} for pt in product([0, 1], repeat=2)},
    )
    g1 = P("x1^2 - x1", nvars=2)
    g2 = P("x2^2 - x2", nvars=2)
    assert in_vanishing_ideal(g1, spec) and in_vanishing_ideal(g2, spec)
    for _ in range(25):
        a = random_poly(rng, ZZ, 2, max_deg=2, max_terms=3)
        b = random_poly(rng, ZZ, 2, max_deg=2, max_terms=3)
        member = a * g1 + b * g2
        assert in_vanishing_ideal(member, spec)
        assert in_vanishing_ideal(member + g1, spec)


def test_membership_consistency_with_decomposition(rng):
    spec = classical_spec()
    G = MonicFamily.build([P("x1^2 - x1")])
    assert certify_groebner(spec, G).verdict == "groebner"
    for _ in range(40):
        f = random_poly(rng, ZZ, 1, max_deg=4)
        if in_vanishing_ideal(f, spec):
            out = groebner_decompose(f, spec, G)
            assert out.remainder.is_zero()
        else:
            from combnull import reduce as lemma_reduce

            assert not lemma_reduce(f, G).remainder.is_zero()
