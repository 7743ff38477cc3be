"""Property tests for certificates: JSON round trips and tamper rejection.

hypothesis is a test-only dependency; the module is skipped without it.
Examples are derandomized so every run checks the same cases.
"""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from combnull import (
    GF,
    ZZ,
    MonicFamily,
    MultisetGrid,
    Poly,
    Zmod,
    format_poly,
    level_basis,
    level_certificate,
    parse_poly,
    reduce,
)
from combnull.serialization import certificate_to_json, verify_certificate_json

PROPERTY = settings(derandomize=True, database=None, deadline=None)

# ring -> the values grid axes draw their support from
GRID_RINGS = ((ZZ, range(-2, 3)), (GF(5), range(5)))


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
