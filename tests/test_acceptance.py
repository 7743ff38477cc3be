"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
criterion carries its stated time budget and exactness requirement.
"""

import random
import time
from itertools import product
from math import prod

import pytest

from combnull import (
    GF,
    ZZ,
    Inapplicable,
    MonicFamily,
    MultisetGrid,
    Poly,
    PuncturedGrid,
    Zmod,
    affine_blocking_bound,
    buchberger_certifies,
    covering_audit,
    exists_blocking_of_size,
    level_basis,
    level_membership,
    level_normal_form,
    min_extra_degree,
    minimal_blocking_size,
    mixed_basis,
    mixed_certificate,
    mixed_membership,
    nonzero_bound,
    punctured_analysis,
    punctured_membership,
    punctured_staircase_count,
    reduce,
    staircase_count,
)
from combnull.covering import CoverInstance
from combnull.multiset_ideals import level_certificate
from combnull.vanishing import MultiplicityTable, certify_groebner, multiplicity_family
from conftest import downset, off_poly, random_monic, random_poly, variable


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criterion 1: counting identities -------------------------------------------


def _outside_upset_count(gens, box):
    """Independent lattice oracle: count box points dominated by no
    generator, by prefix bitmask recursion."""
    gens = [g for g in gens if all(gk < bk for gk, bk in zip(g, box))]
    n = len(box)
    full = (1 << len(gens)) - 1
    per_axis = [
        [
            sum(1 << i for i, g in enumerate(gens) if g[k] <= v)
            for v in range(box[k])
        ]
        for k in range(n)
    ]

    def rec(k, bits):
        if not bits:
            return prod(box[j] for j in range(k, n))
        if k == n:
            return 0
        row = per_axis[k]
        return sum(rec(k + 1, bits & row[v]) for v in range(box[k]))

    return rec(0, full)


def _scaled_simplex(alpha, t):
    n = len(alpha)

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    return {tuple(a * th for a, th in zip(alpha, theta)) for theta in compositions(t, n)}


def test_criterion_1_counting_identities():
    start = time.perf_counter()
    checked = 0
    for n in (1, 2, 3):
        for alpha in product(range(4), repeat=n):
            for t in range(4):
                box = tuple(a * t for a in alpha)
                expected = _outside_upset_count(_scaled_simplex(alpha, t), box)
                assert staircase_count(alpha, t) == expected, (alpha, t)
                checked += 1
                if t >= 1:
                    B = _scaled_simplex(alpha, t)
                    for gamma in product(*(range(a + 1) for a in alpha)):
                        shift = tuple(a - g for a, g in zip(alpha, gamma))
                        C = {
                            tuple(x + s for x, s in zip(b, shift))
                            for b in _scaled_simplex(alpha, t - 1)
                        }
                        expected = _outside_upset_count(B | C, box)
                        got = punctured_staircase_count(alpha, gamma, t)
                        assert got == expected, (alpha, gamma, t)
                        checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 10.0,
        f"{checked} counting identities exact against lattice oracle in {elapsed:.1f}s (< 10s)",
    )


# -- criterion 2: division certificates ------------------------------------------


def _random_poly_total_degree(rng, ring, nvars, max_total=6, max_terms=8):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        while True:
            alpha = tuple(rng.randint(0, max_total) for _ in range(nvars))
            if sum(alpha) <= max_total:
                break
        terms[alpha] = ring.canon(rng.randint(-9, 9))
    return Poly(ring, nvars, terms)


def test_criterion_2_division_certificates():
    rng = random.Random(1202)
    start = time.perf_counter()
    total = 0
    for ring in (ZZ, Zmod(6)):
        for _ in range(500):
            n = rng.randint(1, 3)
            f = _random_poly_total_degree(rng, ring, n)
            G = MonicFamily.build(
                [
                    random_monic(rng, ring, n, max_theta=3, extra_terms=4)
                    for _ in range(rng.randint(1, 3))
                ]
            )
            out = reduce(f, G)
            checks = out.verify()
            assert all(checks.values()), (ring, checks)
            assert out.steps <= len(downset(f.support()))
            again = reduce(out.remainder, G)
            assert again.remainder == out.remainder
            assert all(q.is_zero() for q in again.quotients)
            total += 1
    elapsed = time.perf_counter() - start
    report(
        2,
        total == 1000 and elapsed < 30.0,
        f"{total} random divisions satisfy all four conditions plus idempotence "
        f"in {elapsed:.1f}s (< 30s)",
    )


# -- criteria 3 and 4: the grid sweep ---------------------------------------------


def _axis_configs():
    out = []
    for S in ([0], [0, 1]):
        for psi_vals in product((1, 2), repeat=len(S)):
            out.append((list(S), dict(zip(S, psi_vals))))
    return out


def _sweep_grids(ring, n):
    for combo in product(_axis_configs(), repeat=n):
        yield MultisetGrid.build(
            ring, [list(c[0]) for c in combo], [dict(c[1]) for c in combo]
        )


def test_criterion_3_buchberger_on_level_bases():
    start = time.perf_counter()
    runs = 0
    for ring in (ZZ, GF(5)):
        for n in (1, 2, 3):
            for grid in _sweep_grids(ring, n):
                for t in range(4):
                    assert buchberger_certifies(level_basis(grid, t)), (
                        ring,
                        [a.psi for a in grid.axes],
                        t,
                    )
                    runs += 1
    elapsed = time.perf_counter() - start
    report(
        3,
        elapsed < 60.0,
        f"{runs} level bases Buchberger-certified (100%) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_membership_equivalence():
    rng = random.Random(52)
    start = time.perf_counter()
    disagreements = 0
    trials = 0
    configs = _axis_configs()
    for ring in (ZZ, GF(5)):
        for n in (1, 2, 3):
            for t in range(4):
                for i in range(1000):
                    combo = [configs[rng.randrange(len(configs))] for _ in range(n)]
                    grid = MultisetGrid.build(
                        ring, [list(c[0]) for c in combo], [dict(c[1]) for c in combo]
                    )
                    if i % 4 == 0:
                        # constructed member, exercising the true branch
                        f = Poly.zero(ring, n)
                        for g in level_basis(grid, t).members:
                            f = f + random_poly(rng, ring, n, max_deg=2, max_terms=2) * g
                    else:
                        f = random_poly(rng, ring, n, max_deg=5, max_terms=7)
                    vanishing = level_membership(f, grid, t)
                    normal_form_zero = level_normal_form(f, grid, t).is_zero()
                    if vanishing != normal_form_zero:
                        disagreements += 1
                    trials += 1
    elapsed = time.perf_counter() - start
    report(
        4,
        disagreements == 0 and trials == 24000,
        f"{trials} membership trials across 24 (ring, n, t) configurations, "
        f"{disagreements} disagreements in {elapsed:.1f}s",
    )


# -- criterion 5: punctured pipeline ----------------------------------------------


def test_criterion_5_punctured_pipeline():
    rng = random.Random(53)
    start = time.perf_counter()
    members = 0
    bounds_checked = 0
    for n in (1, 2, 3):
        grid = MultisetGrid.build(ZZ, [[0, 1]] * n)
        pgrid = PuncturedGrid.build(grid, [[0]] * n)
        for t in (1, 2):
            basis = mixed_basis(pgrid, t)
            off_power = Poly.one(ZZ, n)
            for k in range(n):
                off_power = off_power * off_poly(pgrid, k) ** t
            off_sums = pgrid.off_sums()
            floor = (t - 1) * max(off_sums) + sum(off_sums)
            for i in range(25):
                f = Poly.zero(ZZ, n)
                for g in basis.members:
                    f = f + random_poly(rng, ZZ, n, max_deg=2, max_terms=2) * g
                if i % 3 == 0:
                    # intersection members beyond the mixed ideal
                    f = f + random_poly(rng, ZZ, n, max_deg=2, max_terms=2) * off_power
                assert punctured_membership(f, pgrid, t)
                rep = punctured_analysis(f, pgrid, t)
                assert rep.cofactor * rep.divisor == rep.eta
                members += 1
                if rep.nonvanishing_point is not None:
                    assert rep.degree_bound == floor
                    assert rep.degree_f >= rep.degree_eta >= rep.degree_bound
                    bounds_checked += 1
            value, witness = min_extra_degree(pgrid, t)
            assert value == (t - 1) * 2 + n
            assert witness.degree() == value
            assert mixed_membership(witness, pgrid, t)
            assert not level_membership(witness, grid, t)
    elapsed = time.perf_counter() - start
    report(
        5,
        members == 150 and bounds_checked > 0,
        f"{members} sampled members: divisibility exact, degree bound verified on "
        f"{bounds_checked} nonvanishing cases, extremal witness attains the minimum "
        f"in {elapsed:.1f}s",
    )


# -- criterion 6: blocking-set sharpness -------------------------------------------


def test_criterion_6_blocking_sharpness():
    start = time.perf_counter()
    size22, example22 = minimal_blocking_size(2, 2, 1)
    size32, example32 = minimal_blocking_size(3, 2, 1)
    ok = (
        size22 == 3 == affine_blocking_bound(2, 2, 1)
        and size32 == 5 == affine_blocking_bound(3, 2, 1)
        and not exists_blocking_of_size(2, 2, 1, 2)[0]
        and not exists_blocking_of_size(3, 2, 1, 4)[0]
        and example22 is not None
        and example32 is not None
    )
    elapsed = time.perf_counter() - start
    report(
        6,
        ok and elapsed < 60.0,
        f"minimal blocking sizes 3 in AG(2,2) and 5 in AG(2,3) match the bound; "
        f"no smaller subset blocks; {elapsed:.1f}s (< 60s)",
    )


# -- criterion 7: nonzero-count bound sweep ----------------------------------------


def test_criterion_7_nonzero_bound_sweep():
    ring = GF(2)
    S = [[0, 1], [0, 1]]
    checked = 0
    for beta in product((0, 1), repeat=2):
        box = sorted(downset({beta}))
        equality = False
        for coeffs in product((0, 1), repeat=len(box)):
            terms = {a: c for a, c in zip(box, coeffs) if c}
            if not terms:
                continue
            f = Poly(ring, 2, terms)
            rep = nonzero_bound(f, S, beta)
            assert rep.bound <= rep.actual, (beta, terms)
            equality = equality or rep.bound == rep.actual
            checked += 1
        assert equality, f"no sharp case for beta {beta}"
    report(
        7,
        checked == (1 + 3 + 3 + 15),
        f"all {checked} nonzero GF(2) polynomials under each cap: bound <= actual, "
        "sharpness attained for every cap",
    )


# -- criterion 8: Condition (D) gating ---------------------------------------------


def test_criterion_8_condition_d_gating():
    ring = Zmod(6)
    grid = MultisetGrid.build(ring, [[0, 3]])
    pgrid = PuncturedGrid.build(grid, [[0]])
    f = variable(ring, 1, 0)
    gated = []

    def expect_inapplicable(name, thunk):
        try:
            thunk()
        except Inapplicable:
            gated.append(name)
        else:
            report(8, False, f"{name} returned a verdict despite Condition (D) failure")

    expect_inapplicable("level_membership", lambda: level_membership(f, grid, 1))
    expect_inapplicable("level_certificate", lambda: level_certificate(f, grid, 1))
    expect_inapplicable(
        "punctured_membership", lambda: punctured_membership(f, pgrid, 1)
    )
    expect_inapplicable("punctured_analysis", lambda: punctured_analysis(f, pgrid, 1))
    expect_inapplicable("mixed_membership", lambda: mixed_membership(f, pgrid, 1))
    expect_inapplicable("mixed_certificate", lambda: mixed_certificate(f, pgrid, 1))
    expect_inapplicable("min_extra_degree", lambda: min_extra_degree(pgrid, 1))
    expect_inapplicable(
        "covering_audit", lambda: covering_audit(CoverInstance(pgrid, [], 1))
    )
    expect_inapplicable("nonzero_bound", lambda: nonzero_bound(f, [[0, 3]], (1,)))

    # the count-based certification reports inapplicability as a verdict
    table = MultiplicityTable(1, ("a",), {(0, 0, "a"): 1, (0, 3, "a"): 1})
    family, spec = multiplicity_family(ring, [[0, 3]], table)
    rep = certify_groebner(spec, family)
    verdict_ok = rep.verdict == "inapplicable" and rep.groebner is None
    report(
        8,
        len(gated) == 9 and verdict_ok,
        f"{len(gated)} gated operations raised Inapplicable and the count "
        "certification verdict is 'inapplicable', never a boolean",
    )
