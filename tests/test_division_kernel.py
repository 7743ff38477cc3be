"""The packed-key division kernel, the packed Buchberger sweep with its
chain criterion, and the one-pass rewrites around them, each checked
against the tuple-keyed definition it replaces.

The reference definitions live here only, as oracles.  hypothesis is a
test-only dependency; the module is skipped without it.  Examples are
derandomized so every run checks the same cases.
"""

import heapq
import math
import pickle
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from combnull import (
    GF,
    QQ,
    ZZ,
    MonicFamily,
    MultisetGrid,
    NotMonic,
    Poly,
    Zmod,
    buchberger_certifies,
    format_poly,
    level_basis,
    reduce,
    s_polynomial,
)
from combnull import reduction
from combnull.serialization import family_from_json
from combnull.staircase import grlex_key, in_downset, leq
from conftest import RINGS, P, meet, random_family, random_monic, random_poly, vec_sub
from test_acceptance import _sweep_grids

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@pytest.fixture(autouse=True)
def fresh_plans():
    """Start every test with no sweep plan kept, so a test that counts
    packings or plans does not depend on which tests ran before it."""
    reduction._plans.clear()
    yield
    reduction._plans.clear()


def oracle_reduce(f, family):
    """The tuple-keyed division loop: same strategy, exponent tuples
    throughout, a heap ordered by negated graded-lex keys."""
    ring = f.ring
    zero = ring.zero
    thetas = family.witnesses
    quotients = [dict() for _ in thetas]
    work = dict(f.terms)

    def heap_key(gamma):
        return (-sum(gamma), tuple(-g for g in gamma))

    heap = [(heap_key(gamma), gamma) for gamma in work]
    heapq.heapify(heap)
    steps = 0
    while heap:
        _, gamma = heapq.heappop(heap)
        c = work.get(gamma)
        if c is None:
            continue
        i = next((i for i, theta in enumerate(thetas) if leq(theta, gamma)), None)
        if i is None:
            continue
        steps += 1
        shift = vec_sub(gamma, thetas[i])
        q = quotients[i]
        q[shift] = ring.add(q.get(shift, zero), c)
        if q[shift] == zero:
            del q[shift]
        for beta, gc in family.members[i].terms.items():
            key = tuple(x + y for x, y in zip(shift, beta))
            s = ring.sub(work.get(key, zero), ring.mul(c, gc))
            if s == zero:
                work.pop(key, None)
            else:
                work[key] = s
                if key != gamma:
                    heapq.heappush(heap, (heap_key(key), key))
    return quotients, work, steps


def assert_matches_oracle(f, family):
    out = reduce(f, family)
    quotients, remainder, steps = oracle_reduce(f, family)
    # Term order too: serialized outputs follow dict order.
    assert [list(p.terms.items()) for p in out.quotients] == [
        list(q.items()) for q in quotients
    ]
    assert list(out.remainder.terms.items()) == list(remainder.items())
    assert out.steps == steps
    assert out.identity_holds()
    return out


def coefficients(ring):
    if ring == QQ:
        return st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.integers(-3, 3)


@st.composite
def divisions(draw):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 3))
    exps = lambda top: st.tuples(*[st.integers(0, top)] * n)
    members = []
    for _ in range(draw(st.integers(1, 3))):
        theta = draw(exps(3))
        below = st.tuples(*[st.integers(0, h) for h in theta])
        terms = draw(st.dictionaries(below, coefficients(ring), max_size=3))
        terms[theta] = 1
        members.append(Poly(ring, n, terms))
    f = Poly(ring, n, draw(st.dictionaries(exps(6), coefficients(ring), max_size=8)))
    return f, MonicFamily.build(members)


@PROPERTY
@given(divisions())
def test_reduce_matches_tuple_oracle(case):
    f, family = case
    out = assert_matches_oracle(f, family)
    # Each quotient key is set once, so each step adds one quotient term.
    assert out.steps == sum(len(p.terms) for p in out.quotients)


def test_wide_fields():
    # 300 needs 9 bits per field plus the guard.
    f = P("x1^300*x2^300 + 3*x1^299*x2 - x2^7 + 5")
    assert_matches_oracle(f, MonicFamily.build([P("x1^5 - 2*x1", nvars=2), P("x2^7 + x2", nvars=2)]))


def test_exponent_beyond_machine_words():
    big = 2**70
    f = Poly(ZZ, 2, {(big, 1): 1, (0, 3): 2, (1, 0): 1})
    g = Poly(ZZ, 2, {(big, 0): 1, (5, 0): -1})
    out = assert_matches_oracle(f, MonicFamily.build([P("x2^2 - 1", nvars=2), g]))
    assert out.remainder == P("x1^5*x2 + x1 + 2*x2")


def test_witness_outside_the_dividend_box():
    # x2^4 and x1^(2^40) cannot fit the 3-bit fields of f's box (3, 1); the
    # members carrying them come first, so skipping them must keep indices.
    f = P("x1^3*x2 + x1^3 + x2")
    members = [
        P("x2^4 - 1", nvars=2),
        Poly(ZZ, 2, {(2**40, 0): 1, (1, 0): 1}),
        P("x1^2 - x1", nvars=2),
    ]
    out = assert_matches_oracle(f, MonicFamily.build(members))
    assert out.quotients[0].is_zero() and out.quotients[1].is_zero()
    assert not out.quotients[2].is_zero()


def test_zero_and_constant_dividends():
    family = MonicFamily.build([P("x1^2 - x1", nvars=2), P("x2 - 3", nvars=2)])
    assert_matches_oracle(Poly.zero(ZZ, 2), family)
    assert_matches_oracle(Poly.constant(ZZ, 2, 4), family)


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(4), Zmod(6), GF(5)], ids=str)
def test_submul_is_sub_of_mul(ring):
    values = st.fractions(-20, 20, max_denominator=7) if ring == QQ else st.integers(-40, 40)

    @PROPERTY
    @given(values, values, values)
    def check(a, b, c):
        a, b, c = ring.canon(a), ring.canon(b), ring.canon(c)
        got = ring.submul(a, b, c)
        assert got == ring.sub(a, ring.mul(b, c))
        assert type(got) is type(ring.zero) and ring.canon(got) == got

    check()


@pytest.mark.parametrize("ring", [QQ, Zmod(6)], ids=str)
def test_kernel_matches_oracles_on_random_monic_families(rng, ring):
    # tail-only divisors, fused submul and the new-key heap rule change no
    # quotient, remainder, step count or sweep verdict
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        family = random_family(rng, ring, n, max_members=4)
        assert_matches_oracle(random_poly(rng, ring, n, max_deg=5, max_terms=8), family)
        verdicts.add(assert_sweep_matches(family))
    assert verdicts == {True, False}


# -- rewrites pinned against their old definitions ------------------------------


def support_contained_by_term_products(outcome):
    peaks = outcome.poly.max_support()
    for p, g in zip(outcome.quotients, outcome.family.members):
        for a in p.terms:
            for b in g.terms:
                if not in_downset(tuple(x + y for x, y in zip(a, b)), peaks):
                    return False
    return all(in_downset(a, peaks) for a in outcome.remainder.terms)


def test_support_contained_matches_term_products(rng):
    verdicts = set()
    for _ in range(400):
        ring = rng.choice(RINGS)
        n = rng.randint(1, 3)
        out = reduce(random_poly(rng, ring, n, max_deg=4), random_family(rng, ring, n))
        bump = random_poly(rng, ring, n, max_deg=5, max_terms=2)
        if rng.random() < 0.5:
            k = rng.randrange(len(out.quotients))
            quotients = list(out.quotients)
            quotients[k] = quotients[k] + bump
            tampered = out.replace(quotients=tuple(quotients))
        else:
            tampered = out.replace(remainder=out.remainder + bump)
        for outcome in (out, tampered):
            expected = support_contained_by_term_products(outcome)
            assert outcome.support_contained() == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def monic_witness_by_scan(f):
    if not f.terms:
        return None
    theta = max(f.terms, key=grlex_key)
    if any(not leq(alpha, theta) for alpha in f.terms):
        return None
    if f.terms[theta] != f.ring.one:
        return None
    return theta


@pytest.mark.parametrize(
    "text, nvars",
    [
        ("0", 2),
        ("x1 + x2", 2),  # grlex tie, no greatest point
        ("x1^2 + x2^2 + x1*x2", 2),
        ("2*x1^2 + x1", 1),  # coefficient not one
        ("x1^2*x2 - x1^3", 2),  # join (3, 1) is not a support point
        ("x1*x2^2 + x1 - 4", 2),
        ("x3^2 + x1*x3", 3),
        ("7", 1),
    ],
)
def test_monic_witness_fixed_cases(text, nvars):
    f = P(text, nvars=nvars)
    assert f.monic_witness() == monic_witness_by_scan(f)


def test_monic_witness_matches_scan(rng):
    for _ in range(2000):
        ring = rng.choice(RINGS)
        n = rng.randint(1, 3)
        f = random_poly(rng, ring, n) if rng.random() < 0.5 else random_monic(rng, ring, n)
        assert f.monic_witness() == monic_witness_by_scan(f)


def s_polynomial_by_shifted_multiples(f, g):
    alpha, beta = f.monic_witness(), g.monic_witness()
    low = meet(alpha, beta)

    def shifted(p, shift):
        return Poly(p.ring, p.nvars, {
            tuple(x + y for x, y in zip(a, shift)): c for a, c in p.terms.items()
        })

    return shifted(f, vec_sub(beta, low)) - shifted(g, vec_sub(alpha, low))


def test_s_polynomial_matches_shifted_multiples(rng):
    for _ in range(500):
        ring = rng.choice(RINGS)
        n = rng.randint(1, 3)
        f, g = random_monic(rng, ring, n), random_monic(rng, ring, n)
        s = s_polynomial(f, g)
        expected = s_polynomial_by_shifted_multiples(f, g)
        assert list(s.terms.items()) == list(expected.terms.items())


def test_ring_cached_modulus_stays_private():
    a, b = GF(5), GF(5)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Ring(kind='GF', modulus=5)"
    assert a != Zmod(5) and ZZ != QQ
    for ring in (ZZ, QQ, GF(5), Zmod(6)):
        copy = pickle.loads(pickle.dumps(ring))
        assert copy == ring and hash(copy) == hash(ring)
        assert copy.add(copy.one, copy.from_int(7)) == ring.add(ring.one, ring.from_int(7))
    moved = GF(5).replace(modulus=7)
    assert moved == GF(7) and moved.add(5, 4) == 2
    widened = Zmod(6).replace(kind="ZZ", modulus=None)
    assert widened == ZZ and widened.add(5, 4) == 9
    assert QQ.mul(Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)
    # zero and one are set once, follow kind, and stay out of the fields
    for ring in (ZZ, QQ, GF(5), Zmod(6)):
        for name in ("zero", "one"):
            with pytest.raises(AttributeError, match=name):
                setattr(ring, name, 7)
        copy = pickle.loads(pickle.dumps(ring))
        assert (copy.zero, copy.one) == (ring.zero, ring.one) == (0, 1)
    assert [type(c) for c in (QQ.zero, QQ.one, ZZ.zero, ZZ.one)] == [Fraction, Fraction, int, int]
    rational = Zmod(6).replace(kind="QQ", modulus=None)
    assert rational.one == Fraction(1) and type(rational.one) is Fraction
    assert type(QQ.replace().zero) is Fraction and type(widened.one) is int
    assert hash(QQ) == hash(("QQ", None)) and repr(QQ) == "Ring(kind='QQ', modulus=None)"


# -- the packed Buchberger sweep ----------------------------------------------------


def oracle_buchberger(family):
    """The tuple-space sweep: ``s_polynomial``, ``reduce`` and
    ``support_contained`` per pair."""
    members = family.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            s = s_polynomial(members[i], members[j])
            if s.is_zero():
                continue
            out = reduce(s, family)
            if not out.remainder.is_zero() or not out.support_contained():
                return False
    return True


def assert_sweep_matches(family):
    verdict = buchberger_certifies(family)
    assert verdict == oracle_buchberger(family)
    return verdict


def test_sweep_matches_oracle_on_level_bases():
    runs = 0
    for ring in (ZZ, GF(5)):
        for n in (1, 2, 3):
            for grid in _sweep_grids(ring, n):
                for t in range(4):
                    assert assert_sweep_matches(level_basis(grid, t))
                    runs += 1
    assert runs == 2064


@st.composite
def families(draw):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 3))
    members = []
    for _ in range(draw(st.integers(1, 4))):
        theta = draw(st.tuples(*[st.integers(0, 2)] * n))
        below = st.tuples(*[st.integers(0, h) for h in theta])
        terms = draw(st.dictionaries(below, coefficients(ring), max_size=3))
        terms[theta] = 1
        members.append(Poly(ring, n, terms))
    return MonicFamily.build(members)


def test_sweep_matches_oracle_on_drawn_families():
    verdicts = set()

    @PROPERTY
    @given(families())
    def check(family):
        verdicts.add(assert_sweep_matches(family))

    check()
    assert verdicts == {True, False}


@st.composite
def wide_families(draw):
    ring = draw(st.sampled_from(RINGS))
    n = draw(st.integers(1, 3))
    members = []
    for _ in range(draw(st.integers(2, 7))):
        theta = draw(st.tuples(*[st.integers(0, 3)] * n))
        below = st.tuples(*[st.integers(0, h) for h in theta])
        terms = draw(st.dictionaries(below, coefficients(ring), max_size=3))
        terms[theta] = 1
        members.append(Poly(ring, n, terms))
    return MonicFamily.build(members)


def counting_divisions(monkeypatch):
    """Count the sweep's ``_divide`` calls: one per S-pair it divides."""
    calls = []
    divide = reduction._divide

    def counted(*args):
        calls.append(None)
        return divide(*args)

    monkeypatch.setattr(reduction, "_divide", counted)
    return calls


def counting_packings(monkeypatch):
    """Record the corner of every ``_packing`` call: one per sweep plan."""
    corners = []
    packing = reduction._packing

    def counted(corner):
        corners.append(corner)
        return packing(corner)

    monkeypatch.setattr(reduction, "_packing", counted)
    return corners


def test_pruned_sweep_matches_oracle_on_larger_families(monkeypatch):
    calls = counting_divisions(monkeypatch)
    verdicts = set()
    pruned = []

    @PROPERTY
    @given(wide_families())
    def check(family):
        calls.clear()
        verdict = buchberger_certifies(family)
        divided = len(calls)
        assert verdict == oracle_buchberger(family)
        verdicts.add(verdict)
        # Only a certified family divides every pair it keeps.
        if verdict and divided < len(family) * (len(family) - 1) // 2:
            pruned.append(family)

    check()
    assert verdicts == {True, False}
    assert pruned


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_sweep_divides_only_adjacent_pairs_of_a_level_basis(monkeypatch, n, t):
    # The chain criterion keeps theta(alpha + e_a), theta(alpha + e_b), a < b:
    # one pair per |alpha| = t - 1 and pair of axes.  At t = 1 (alpha = 0)
    # all of them are coprime.  For n = 3, each lcm alpha + e_1 + e_2 + e_3
    # is shared by three kept pairs, and the forest divides two: 3 C(t+1, 2)
    # - C(t, 2) = t(t + 2).  Axis degrees only scale the witnesses.
    divided = 0 if t == 1 else {2: t, 3: t * (t + 2)}[n]
    calls = counting_divisions(monkeypatch)
    for supports, psi in (
        ([[0, 1, 2]] * n, None),
        ([[0], [0, 1], [0, 1]][:n], [{0: 2}, {0: 1, 1: 3}, {0: 1, 1: 2}][:n]),
    ):
        calls.clear()
        assert buchberger_certifies(level_basis(MultisetGrid.build(ZZ, supports, psi), t))
        assert len(calls) == divided


@pytest.mark.parametrize(
    "members, expected, divided",
    [
        # Coprime witnesses: those pairs are never divided.
        (["x1*x2 + x1 - 3", "x3^2 + 1"], True, 0),
        (["x1^2 - x1", "x2^2 - x2", "x3 - 2"], True, 0),
        (["x1^2 - x1", "x1*x2 + 2*x1", "x3 - 2"], True, 1),
        # Three witnesses whose pairs share the lcm x1^2*x2^2: the forest
        # divides two pairs and the third telescopes.
        (["x1^2*x2", "x1*x2^2", "x1^2*x2^2"], True, 2),
        (["x1^2*x2 - x1*x2", "x1*x2^2 - x1*x2", "x1^2*x2^2 - x1*x2"], True, 2),
        # The first pair reduces to 0 and joins the tree; the second does not.
        (["x1^2*x2 - x1", "x1*x2^2 - x2", "x1^2*x2^2"], False, 2),
    ],
)
@pytest.mark.parametrize("ring", RINGS)
def test_sweep_skips_coprime_and_tied_pairs(monkeypatch, members, expected, divided, ring):
    family = MonicFamily.build([P(text, ring, nvars=3) for text in members])
    calls = counting_divisions(monkeypatch)
    assert buchberger_certifies(family) is expected
    assert len(calls) == divided
    assert oracle_buchberger(family) is expected


def _coprime_families(ring):
    yield level_basis(MultisetGrid.build(ring, [[0, 1]] * 2), 0)
    for n in (1, 2, 3):
        for m in (1, 2):
            grid = MultisetGrid.build(ring, [[0, 1]] * n, [{0: m, 1: m}] * n)
            yield level_basis(grid, 1)
    yield MonicFamily.build([P(text, ring, nvars=3) for text in
                             ["x1^2 - x1", "x2^2 - x2", "x3 - 2"]])


@pytest.mark.parametrize("ring", RINGS)
def test_sweep_certifies_coprime_witnesses_without_packing(monkeypatch, ring):
    # Pairwise coprime witnesses (Alon's level-1 basis among them) are
    # settled by the first criterion before the family is packed.
    families = list(_coprime_families(ring))
    assert all(oracle_buchberger(family) for family in families)

    def refuse(corner):
        raise AssertionError("a coprime family was packed")

    monkeypatch.setattr(reduction, "_packing", refuse)
    for family in families:
        assert buchberger_certifies(family) is True


@pytest.mark.parametrize("ring", RINGS)
def test_sweep_packs_a_family_with_a_shared_variable(monkeypatch, ring):
    corners = counting_packings(monkeypatch)
    family = MonicFamily.build([P(text, ring, nvars=3) for text in
                                ["x1^2 - x1", "x1*x2 + 2*x1", "x3 - 2"]])
    assert buchberger_certifies(family) is True
    assert corners == [(2, 1, 1)]
    # The plan is kept per witness tuple: a repeat call, or another family
    # with the same witnesses, packs nothing more.
    same_witnesses = MonicFamily.build([P(text, ring, nvars=3) for text in
                                        ["x1^2 + x1", "x1*x2 + x2", "x3 + 1"]])
    assert buchberger_certifies(family) is True
    assert buchberger_certifies(same_witnesses) is True
    assert corners == [(2, 1, 1)]
    assert list(reduction._plans) == [family.witnesses]
    assert oracle_buchberger(family) is oracle_buchberger(same_witnesses) is True


@pytest.mark.parametrize(
    "groebner, other, divided",
    [
        # The other family's second divided pair leaves x1 - x2.
        (["x1^2*x2 - x1*x2", "x1*x2^2 - x1*x2", "x1^2*x2^2 - x1*x2"],
         ["x1^2*x2 - x1", "x1*x2^2 - x2", "x1^2*x2^2"], (2, 2)),
        # The other family's only divided pair leaves 2*x2.
        (["x1^2 - x1", "x1*x2 + 2*x1", "x3 - 2"], ["x1^2 - x1", "x1*x2 + x2", "x3 - 2"], (1, 1)),
    ],
)
@pytest.mark.parametrize("ring", RINGS)
def test_sweep_plan_is_shared_by_families_with_equal_witnesses(monkeypatch, groebner, other,
                                                               divided, ring):
    # One plan serves both families, whichever is swept first.  Only a sweep
    # that divides every pair to 0 keeps its plan, so when the other family
    # comes first it plans, stops at its nonzero remainder and keeps
    # nothing, and the Groebner family plans again.
    families = [MonicFamily.build([P(text, ring, nvars=3) for text in members])
                for members in (groebner, other)]
    assert families[0].witnesses == families[1].witnesses
    expected = (True, False)
    assert tuple(oracle_buchberger(family) for family in families) == expected
    calls = counting_divisions(monkeypatch)
    packings = counting_packings(monkeypatch)
    for order, planned in (((0, 1), 1), ((1, 0), 2)):
        reduction._plans.clear()
        packings.clear()
        for k in order + order:
            calls.clear()
            assert buchberger_certifies(families[k]) is expected[k]
            assert len(calls) == divided[k]
        assert len(packings) == planned
        assert list(reduction._plans) == [families[0].witnesses]


@pytest.mark.parametrize("ring", RINGS)
def test_kept_plan_divides_the_pairs_a_fresh_sweep_divides(monkeypatch, ring):
    # A sweep that replays a kept plan hands ``_divide`` the same S-pairs, in
    # the same order, as a sweep that chooses its pairs: for level bases and
    # for their twins with 1 added to member 0, which fail at some pair,
    # whichever of a basis and its twin is swept first.
    s_pairs = []
    divide = reduction._divide

    def recorded(ring, work, *args):
        s_pairs.append(list(work.items()))
        return divide(ring, work, *args)

    monkeypatch.setattr(reduction, "_divide", recorded)
    for n in (2, 3):
        for grid in _sweep_grids(ring, n):
            for t in (2, 3):
                basis = level_basis(grid, t)
                twin = MonicFamily.build(
                    (basis.members[0] + Poly.one(ring, n),) + basis.members[1:])
                assert twin.witnesses == basis.witnesses
                sweeps = {True: set(), False: set()}
                for order in ((basis, twin), (twin, basis)):
                    reduction._plans.clear()
                    for family in order + order:
                        hit = family.witnesses in reduction._plans
                        s_pairs.clear()
                        is_basis = family is basis
                        assert buchberger_certifies(family) is is_basis
                        sweeps[is_basis].add((hit, repr(s_pairs)))
                for seen in sweeps.values():
                    # A miss and a hit, each dividing the same S-pairs.
                    assert {hit for hit, _ in seen} == {False, True}
                    assert len({pairs for _, pairs in seen}) == 1


def test_sweep_keeps_no_plan_for_a_large_family(monkeypatch):
    # 17 members, one past MAX_PLANNED_MEMBERS: every call plans afresh.
    family = level_basis(MultisetGrid.build(ZZ, [[0, 1]] * 2), 16)
    assert len(family) == reduction.MAX_PLANNED_MEMBERS + 1
    packings = counting_packings(monkeypatch)
    for _ in range(2):
        assert buchberger_certifies(family) is True
    assert len(packings) == 2
    assert not reduction._plans


def test_plan_cache_drops_its_oldest_plan_past_its_size():
    # 1 025 families [x1^a + x1, x1*x2^b] with distinct witnesses (a, 0) and
    # (1, b) share x1, so each is planned; the S-pair x1*x2^b divides to 0.
    families = [MonicFamily.build([P(f"x1^{a} + x1", nvars=2), P(f"x1*x2^{b}")])
                for a in range(2, 43) for b in range(1, 26)]
    assert len({family.witnesses for family in families}) == 1025
    for family in families:
        assert buchberger_certifies(family) is True
    assert len(reduction._plans) == reduction._PLAN_CACHE_SIZE == 1024
    assert families[0].witnesses not in reduction._plans
    assert list(reduction._plans) == [family.witnesses for family in families[1:]]
    # newest first: 1 024 kept plans, then the dropped one planned again
    hits = []
    for family in reversed(families):
        hits.append(family.witnesses in reduction._plans)
        assert buchberger_certifies(family) is True
    assert hits == [True] * 1024 + [False]
    assert len(reduction._plans) == 1024 and families[0].witnesses in reduction._plans
    assert all(oracle_buchberger(family) for family in families[::64])

def test_benchmark_sweep_division_and_plan_counts(monkeypatch):
    # The `groebner` benchmark's ops: criterion 3's sweep over ZZ and seven
    # prime fields, 8 256 level bases whose order its seed only shuffles.
    # They divide 41 184 S-pairs.  Of their 251 distinct witness tuples, 91
    # are pairwise coprime and never packed; the other 160 are each planned
    # once, by the first family that has them.
    calls = counting_divisions(monkeypatch)
    packings = counting_packings(monkeypatch)
    ops = 0
    for ring in (ZZ, GF(5), GF(7), GF(11), GF(13), GF(17), GF(19), GF(23)):
        for n in (1, 2, 3):
            for grid in _sweep_grids(ring, n):
                for t in range(4):
                    assert buchberger_certifies(level_basis(grid, t)) is True
                    ops += 1
    assert ops == 8256
    assert len(calls) == 41184
    assert len(packings) == len(reduction._plans) == 160


def test_sweep_needs_strictly_smaller_lcms():
    # Every pair's lcm is x1*x2 and x1*x2 divides it, but each pair's other
    # two lcms tie with its own; skipping on "some third witness divides the
    # lcm" alone would drop all three pairs and certify a family whose ideal
    # holds 1.  The pair (x1, x1*x2 + 1) leaves -1.
    family = MonicFamily.build([P("x1", nvars=2), P("x2"), P("x1*x2 + 1")])
    assert s_polynomial(family.members[0], family.members[2]) == P("-1", nvars=2)
    assert assert_sweep_matches(family) is False


@pytest.mark.parametrize(
    "members, expected",
    [
        (["x1*x2 + x1", "x2^2"], False),
        (["x1^2 - x1", "x2^2 - 1", "x1*x2 - x2"], False),
        (["x1^2 - x1", "x2^2 - 1"], True),
        (["x1 - 1"], True),
        ([], True),
    ],
)
def test_sweep_fixed_cases(members, expected):
    family = MonicFamily.build([P(text, nvars=2) for text in members])
    assert assert_sweep_matches(family) is expected


def test_sweep_exponent_beyond_machine_words():
    big = 2**70
    coprime = MonicFamily.build([
        Poly(ZZ, 2, {(big, 0): 1, (1, 0): -1}),
        P("x2^2 - 1", nvars=2),
    ])
    assert assert_sweep_matches(coprime) is True
    stuck = MonicFamily.build([
        Poly(ZZ, 2, {(big, 1): 1, (1, 0): 1}),
        Poly(ZZ, 2, {(big, 0): 1}),
    ])
    assert assert_sweep_matches(stuck) is False


def test_sweep_never_certifies_a_wrong_stored_witness():
    # No family can store a wrong witness: they are derived at construction,
    # and the old (members, witnesses, labels) call is refused.
    members = (P("x1 - 1", nvars=2), P("x2 - 1", nvars=2))
    with pytest.raises(TypeError):
        MonicFamily(members, ((2, 0), (0, 2)), (0, 1))
    family = MonicFamily(members, (0, 1))
    assert family.witnesses == ((1, 0), (0, 1))
    assert assert_sweep_matches(family) is True
    moved = family.replace(members=(P("x1^2 - x1", nvars=2), P("x2^3", nvars=2)))
    assert moved.witnesses == ((2, 0), (0, 3))
    # Built with a stored witness 1 for x1^2 + x1, this family let ``reduce``
    # climb past the dividend's box to remainder x1^5.  Its S-pair is -x1^2,
    # which leaves x1, so the sweep is inconclusive.
    climbing = MonicFamily.build((P("x1^3"), P("x1^2 + x1")))
    assert climbing.witnesses == ((3,), (2,))
    assert assert_matches_oracle(P("-x1^2"), climbing).remainder == P("x1")
    assert assert_sweep_matches(climbing) is False


def test_sweep_refuses_a_non_monic_member():
    # A non-monic member is refused on every construction path, so no sweep
    # ever sees one; the oracle's ``s_polynomial`` refuses it on its own.
    members = (P("x1 - 1", nvars=2), P("x2 - 1", nvars=2), P("x1 + x2", nvars=2))
    labels = (0, 1, 2)
    family = MonicFamily.build(members[:2])
    doc = {str(k): format_poly(g) for k, g in zip(labels, members)}
    for construct in (
        lambda: MonicFamily(members, labels),
        lambda: MonicFamily.build(members),
        lambda: family.replace(members=members, labels=labels),
        lambda: family_from_json(doc, ZZ, 2),
    ):
        with pytest.raises(NotMonic):
            construct()
    with pytest.raises(NotMonic):
        s_polynomial(members[0], members[2])
