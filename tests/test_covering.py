import random
import time
from functools import reduce
from itertools import product

import pytest

from combnull import (
    GF,
    QQ,
    ZZ,
    CoverInstance,
    Inapplicable,
    MultisetGrid,
    Poly,
    PuncturedGrid,
    ScaleExceeded,
    UnsupportedField,
    Zmod,
    affine_blocking_bound,
    blocking_audit,
    covering_audit,
    exists_blocking_of_size,
    minimal_blocking_size,
    point_cover_threshold,
)
from combnull import polynomials
from combnull.covering import affine_hyperplanes
from combnull.polynomials import random_poly
from combnull.staircase import grlex_key
from conftest import P, covering_audit_oracle, variable


def threshold_by_enumeration(psi, t):
    best = -1
    tops = [m * t for m in psi]  # beta_i <= psi_i * t - 1 in the admissible set
    for beta in product(*(range(top) for top in tops)):
        if sum(b // m for b, m in zip(beta, psi)) <= t - 1:
            best = max(best, sum(beta))
    return best + 1


def test_threshold_examples():
    assert point_cover_threshold((1, 1), 1) == 1
    assert point_cover_threshold((1, 1, 1), 3) == 3
    assert point_cover_threshold((2, 3), 1) == 4
    assert point_cover_threshold((4,), 2) == 8


def test_threshold_matches_enumeration_exhaustive():
    for n in (1, 2, 3):
        for psi in product((1, 2, 3, 4), repeat=n):
            for t in (1, 2, 3, 4):
                assert point_cover_threshold(psi, t) == threshold_by_enumeration(
                    psi, t
                ), (psi, t)


def coordinate_cover_instance():
    grid = MultisetGrid.build(ZZ, [[0, 1], [0, 1]])
    pg = PuncturedGrid.build(grid, [[0], [0]])
    planes = [
        (P("x1 - 1", nvars=2), 1),
        (P("x2 - 1", nvars=2), 1),
    ]
    return CoverInstance.build(pg, planes, 1)


def test_covering_audit_bound_holds():
    report = covering_audit(coordinate_cover_instance())
    assert report.verdict == "bound_holds"
    assert report.escape_point == (0, 0)
    assert report.sum_degrees == 2
    assert report.product_degree == 2
    assert max(report.bounds) == 2


def test_covering_audit_uncovered():
    grid = MultisetGrid.build(ZZ, [[0, 1], [0, 1]])
    pg = PuncturedGrid.build(grid, [[0], [0]])
    report = covering_audit(CoverInstance.build(pg, [], 1))
    assert report.verdict == "hypotheses_unmet"
    assert not report.hypothesis_coverage
    assert report.uncovered_point is not None


def test_covering_audit_no_escape_point():
    grid = MultisetGrid.build(ZZ, [[0, 1], [0, 1]])
    pg = PuncturedGrid.build(grid, [[0], [0]])
    planes = [
        (P("x1 - 1", nvars=2), 1),
        (P("x2 - 1", nvars=2), 1),
        (P("x1", nvars=2) * P("x2", nvars=2), 2),
    ]
    report = covering_audit(CoverInstance.build(pg, planes, 1))
    assert report.verdict == "hypotheses_unmet"
    assert report.hypothesis_coverage
    assert not report.hypothesis_escape


def test_covering_audit_gate():
    grid = MultisetGrid.build(Zmod(6), [[0, 3]])
    pg = PuncturedGrid.build(grid, [[0]])
    with pytest.raises(Inapplicable):
        covering_audit(CoverInstance.build(pg, [], 1))


def test_covering_audit_multiplicity_instance():
    # doubled coverage requirement at t = 2 on a one-dimensional grid
    grid = MultisetGrid.build(ZZ, [[0, 1, 2]])
    pg = PuncturedGrid.build(grid, [[0]])
    planes = [(P("x1 - 1"), 1), (P("x1 - 1"), 1), (P("x1 - 2"), 1), (P("x1 - 2"), 1)]
    inst = CoverInstance.build(pg, planes, 2)
    report = covering_audit(inst)
    assert report.verdict == "bound_holds"
    assert max(report.bounds) == (2 - 1) * 2 + 2


def test_cover_instance_degree_validation():
    grid = MultisetGrid.build(ZZ, [[0, 1]])
    pg = PuncturedGrid.build(grid, [[0]])
    with pytest.raises(ValueError):
        CoverInstance.build(pg, [(P("x1 - 1"), 2)], 1)


def test_affine_blocking_bound_values():
    assert affine_blocking_bound(2, 2, 1) == 3
    assert affine_blocking_bound(3, 2, 1) == 5
    assert affine_blocking_bound(2, 2, 2) == 4
    with pytest.raises(UnsupportedField):
        affine_blocking_bound(4, 2, 1)
    with pytest.raises(UnsupportedField):
        affine_blocking_bound(9, 2, 1)


def test_hyperplane_enumeration_counts():
    assert len(list(affine_hyperplanes(2, 2))) == 6
    assert len(list(affine_hyperplanes(3, 2))) == 12
    assert len(list(affine_hyperplanes(2, 3))) == 14


def test_blocking_audit_examples():
    report = blocking_audit(2, 2, 1, [(0, 1), (1, 0), (1, 1)])
    assert report.blocked and report.size == report.bound == 3

    axes_points = [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]
    report3 = blocking_audit(3, 2, 1, axes_points)
    assert report3.blocked and report3.size == report3.bound == 5

    missing = blocking_audit(2, 2, 1, [(0, 1), (1, 0)])
    assert not missing.blocked
    assert missing.unblocked_hyperplane is not None


def test_blocking_multiset_multiplicity():
    # t = 2 blocking counts points with multiplicity
    doubled = [(0, 1), (0, 1), (1, 0), (1, 0), (1, 1), (1, 1)]
    report = blocking_audit(2, 2, 2, doubled)
    assert report.blocked


def test_minimal_blocking_sizes():
    assert minimal_blocking_size(2, 2, 1)[0] == 3
    assert minimal_blocking_size(3, 2, 1)[0] == 5
    assert not exists_blocking_of_size(2, 2, 1, 2)[0]
    assert not exists_blocking_of_size(3, 2, 1, 4)[0]


def test_scale_guard():
    # GF(7)^5 has 16 807 points, far past the old 1 000-point refusal: the
    # empty multiset is audited at once, while 1 000 points need
    # 19 607 * 1 000 point-hyperplane tests and are refused before any.
    start = time.perf_counter()
    report = blocking_audit(7, 5, 1, [])
    assert report.blocked is False and report.size == 0
    with pytest.raises(ScaleExceeded, match="needs 19607000 hyperplane tests"):
        blocking_audit(7, 5, 1, [(0,) * 5] * 1000)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(ValueError):
        blocking_audit(2, 2, 1, [(0, 1, 1)])


def test_blocking_search_work_is_estimated_up_front():
    # the sizes below the bound 9 in GF(5)^2 need about 5.4 * 10^7
    # hyperplane tests: refused before any search, and the count, which
    # stops once past the bound, is printed as a lower bound.  So are
    # spaces of 10^12 and 10^18 points (C(10^12, 10^6) alone would take
    # minutes to compute).
    start = time.perf_counter()
    with pytest.raises(ScaleExceeded, match="needs over 2052150 hyperplane tests"):
        minimal_blocking_size(5, 2, 1)
    with pytest.raises(ScaleExceeded, match="needs 32447250 hyperplane tests"):
        exists_blocking_of_size(5, 2, 1, 8)
    # no 2^31-subset of GF(2)^30 exists, but the search would list all 2^30
    # points: it is charged one candidate and refused
    with pytest.raises(ScaleExceeded, match="needs 2147483646 hyperplane tests"):
        exists_blocking_of_size(2, 30, 1, 2**31)
    with pytest.raises(ScaleExceeded, match="hyperplane tests"):
        exists_blocking_of_size(1000003, 2, 1, 10**6)
    with pytest.raises(ScaleExceeded, match="hyperplane tests"):
        minimal_blocking_size(1000003, 3, 1)
    # a count too long to print is named by its size
    with pytest.raises(ScaleExceeded, match=r"GF\(3\)\^10000 needs over 10\^20 hyperplane tests"):
        exists_blocking_of_size(3, 10**4, 1, 1)
    assert time.perf_counter() - start < 1.0
    assert minimal_blocking_size(3, 2, 3)[0] == 9


@pytest.mark.parametrize("q, n", [(2, 19), (2, 40)])
def test_size_zero_blocking_search_answers_at_once(q, n):
    # the empty multiset meets no hyperplane, and one exists: no space is
    # listed, and GF(2)^40 is not refused by the up-front count
    start = time.perf_counter()
    assert exists_blocking_of_size(q, n, 1, 0) == (False, None)
    assert time.perf_counter() - start < 0.05


def test_blocking_audit_work_is_counted_up_front():
    # GF(31)^2 has 992 affine lines: 2 016 points make 1 999 872 point-line
    # tests, within MAX_SEARCH_TESTS, and 2 017 points 2 000 864, refused
    # before any test.
    start = time.perf_counter()
    with pytest.raises(ScaleExceeded, match=r"blocking audit in GF\(31\)\^2 needs 2000864 "):
        blocking_audit(31, 2, 1, [(0, 0)] * 2017)
    assert time.perf_counter() - start < 1.0
    report = blocking_audit(31, 2, 1, [(0, 0)] * 2016)
    assert report.unblocked_hyperplane == ((0, 1), 1) and report.size == 2016


def test_covering_degree_inequality_on_random_instances(rng):
    # coordinate-plane covers of random Condition (D) grids satisfy both
    # hypotheses by construction; the audit then asserts the inequality
    # internally and must return bound_holds every time
    for _ in range(25):
        n = rng.randint(1, 3)
        t = rng.randint(1, 2)
        supports = []
        punctures = []
        for _ in range(n):
            size = rng.randint(2, 3)
            values = sorted(rng.sample(range(-3, 7), size))
            keep = rng.randint(1, size - 1)
            supports.append(values)
            punctures.append(values[:keep])
        grid = MultisetGrid.build(ZZ, supports)
        pg = PuncturedGrid.build(grid, punctures)
        planes = []
        for k in range(n):
            off = [u for u in supports[k] if u not in set(punctures[k])]
            for u in off:
                mono = variable(ZZ, n, k) - Poly.constant(ZZ, n, u)
                threshold = point_cover_threshold((1,) * n, t)
                planes.extend([(mono, 1)] * threshold)
        report = covering_audit(CoverInstance.build(pg, planes, t))
        assert report.verdict == "bound_holds"


@pytest.mark.parametrize(
    "planes, escape",
    [(["2", "3"], None), (["x1 + 2", "3"], (1,)), (["x1 + 1", "x1 + 5"], (0,))],
    ids=["constants", "one_point", "first_point"],
)
def test_escape_point_is_a_product_value(planes, escape):
    # in ZZ/6 two nonzero plane values can multiply to 0 (2 * 3), so the
    # escape test reads the product, not each plane
    ring = Zmod(6)
    pgrid = PuncturedGrid.build(MultisetGrid.build(ring, [[0, 1]]), [[0, 1]])
    rhos = [P(text, ring=ring, nvars=1) for text in planes]
    inst = CoverInstance.build(pgrid, [(rho, rho.degree()) for rho in rhos], 1)
    oracle = [
        point for point in pgrid.grid_points()
        if reduce(ring.mul, (rho.evaluate(point) for rho in rhos)) != ring.zero
    ]
    report = covering_audit(inst)
    assert report.escape_point == next(iter(oracle), None) == escape
    assert report.hypothesis_escape is (escape is not None)
    assert report.verdict == ("hypotheses_unmet" if escape is None else "bound_holds")


def _outcome(audit, inst):
    try:
        return audit(inst)
    except Exception as exc:  # the same refusal, by type and message
        return type(exc), str(exc)


def test_covering_audit_matches_the_expanded_product_oracle():
    # seeded draws over fields, ZZ and ZZ/m with zero divisors.  Most planes
    # vanish on a slice x_k = u off the puncture, so both hypotheses hold
    # often enough; over ZZ/6 and ZZ/4 a leading coefficient can be a zero
    # divisor, where the audit expands the product, whose degree can then
    # fall below the sum.  Grids without Condition (D) are refused by both.
    rng = random.Random(31)
    fallback = lowered = 0
    for draw in range(2000):
        ring = (ZZ, QQ, GF(5), Zmod(6), Zmod(4))[draw % 5]
        n = rng.randint(1, 3)
        supports = [rng.sample(range(4), rng.randint(1, 2)) for _ in range(n)]
        psis = [{u: rng.choice((1, 1, 2)) for u in S} for S in supports]
        punctures = [rng.sample(S, rng.randint(0, len(S))) for S in supports]
        pgrid = PuncturedGrid.build(MultisetGrid.build(ring, supports, psis), punctures)
        planes = []
        for _ in range(rng.randint(0, 5)):
            rho = random_poly(rng, ring, n, max_deg=1, max_terms=3)
            if rng.random() < 0.8:
                k = rng.randrange(n)
                u = rng.choice([v for v in supports[k] if v not in punctures[k]] or supports[k])
                rho = (variable(ring, n, k) - Poly.constant(ring, n, u)) * rho
            if not rho.is_zero():
                planes.append((rho, rho.degree()))
        inst = CoverInstance.build(pgrid, planes, rng.randint(1, 2))
        report = _outcome(covering_audit, inst)
        assert report == _outcome(covering_audit_oracle, inst), (ring, inst)
        if getattr(report, "verdict", None) == "bound_holds" and any(
                ring.is_zero_divisor(rho.terms[max(rho.terms, key=grlex_key)])
                for rho, _ in planes):
            fallback += 1
            lowered += report.product_degree < report.sum_degrees
    assert fallback >= 1
    assert lowered >= 1


def _zmod6_planes(k: int) -> CoverInstance:
    """k planes 2*x1 + x2 + ... + xk - c over ZZ/6 on {0}^k with E = S and
    t = 1, c = 1, 5, 7, 11, ...: each -c is a unit, so the planes escape at
    the origin, and no point lies off the puncture.  2 is a zero divisor
    mod 6, so the audit expands the product."""
    ring = Zmod(6)
    pgrid = PuncturedGrid.build(MultisetGrid.build(ring, [[0]] * k), [[0]] * k)
    body = " + ".join(["2*x1"] + [f"x{i}" for i in range(2, k + 1)])
    constants = [c for c in range(1, 48) if c % 6 in (1, 5)][:k]
    return CoverInstance.build(pgrid, [(P(f"{body} - {c}", ring, k), 1) for c in constants], 1)


def test_zmod_plane_product_counts_exactly_its_term_products(monkeypatch):
    # 3 planes of 4 terms: 1 * 4 + 4 * 4, then |rho_1 rho_2| * 4 products
    inst = _zmod6_planes(3)
    rhos = [rho for rho, _ in inst.planes]
    work = 4 + 16 + len((rhos[0] * rhos[1]).terms) * 4
    monkeypatch.setattr(polynomials, "MAX_BASIS_TERMS", work)
    assert covering_audit(inst).product_degree == 3
    monkeypatch.setattr(polynomials, "MAX_BASIS_TERMS", work - 1)
    with pytest.raises(ScaleExceeded, match=f"^the product of 3 planes needs over {work - 1} "
                                            "term products$"):
        covering_audit(inst)


def test_zmod_plane_product_is_refused_past_the_term_limit():
    # 13 planes make 663 474 term products and answer; 16 would make
    # 4 983 822 (18.6 s uncounted), and the count trips before the 14th
    report = covering_audit(_zmod6_planes(13))
    assert (report.verdict, report.product_degree) == ("bound_holds", 13)
    assert report.escape_point == (0,) * 13
    start = time.perf_counter()
    with pytest.raises(ScaleExceeded,
                       match="^the product of 16 planes needs over 1000000 term products$"):
        covering_audit(_zmod6_planes(16))
    assert time.perf_counter() - start < 5
