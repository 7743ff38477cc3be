"""Every entry point applies the same input rule the same way.

One parametrized test per rule: the level t, the operand ring and arity,
the prime q, Condition (D), the multiplicity psi(u), and every other count
or exponent.
"""

import re

import pytest

from combnull import (
    GF,
    ZZ,
    ArityMismatch,
    CoverInstance,
    Inapplicable,
    MonicFamily,
    MultiplicityTable,
    MultisetGrid,
    NonPositiveMultiplicity,
    ParseError,
    Poly,
    PuncturedGrid,
    RingMismatch,
    UnsupportedField,
    VanishingSpec,
    Zmod,
    affine_blocking_bound,
    blocking_audit,
    covering_audit,
    exists_blocking_of_size,
    in_vanishing_ideal,
    level_basis,
    level_certificate,
    level_membership,
    level_normal_form,
    min_extra_degree,
    minimal_blocking_size,
    mixed_basis,
    mixed_certificate,
    mixed_membership,
    nonzero_bound,
    point_cover_threshold,
    punctured_analysis,
    punctured_membership,
    punctured_staircase_count,
    reduce,
    root_product,
    staircase_count,
)
from combnull.covering import instance_from_json
from combnull.serialization import certificate_to_json, grid_from_json, verify_certificate_json
from conftest import P, monic_power_product

GRID = MultisetGrid.build(ZZ, [[0, 1]])
PGRID = PuncturedGrid.build(GRID, [[0]])
X1 = P("x1")

# entry point -> (call with level t, least valid level)
LEVEL_ENTRY_POINTS = {
    "staircase_count": (lambda t: staircase_count((2, 3), t), 0),
    "punctured_staircase_count": (
        lambda t: punctured_staircase_count((2, 3), (1, 1), t), 1),
    "level_basis": (lambda t: level_basis(GRID, t), 0),
    "level_membership": (lambda t: level_membership(X1, GRID, t), 0),
    "level_normal_form": (lambda t: level_normal_form(X1, GRID, t), 0),
    "level_certificate": (lambda t: level_certificate(X1, GRID, t), 0),
    "punctured_membership": (lambda t: punctured_membership(X1, PGRID, t), 0),
    "punctured_analysis": (lambda t: punctured_analysis(X1, PGRID, t), 1),
    "mixed_basis": (lambda t: mixed_basis(PGRID, t), 1),
    "mixed_membership": (lambda t: mixed_membership(X1, PGRID, t), 1),
    "mixed_certificate": (lambda t: mixed_certificate(X1, PGRID, t), 1),
    "min_extra_degree": (lambda t: min_extra_degree(PGRID, t), 1),
    "point_cover_threshold": (lambda t: point_cover_threshold((1, 2), t), 1),
    "CoverInstance.build": (lambda t: CoverInstance.build(PGRID, [], t), 1),
    "affine_blocking_bound": (lambda t: affine_blocking_bound(2, 2, t), 1),
    "blocking_audit": (lambda t: blocking_audit(2, 2, t, [(0, 0)]), 1),
    "exists_blocking_of_size": (lambda t: exists_blocking_of_size(2, 2, t, 1), 1),
    "minimal_blocking_size": (lambda t: minimal_blocking_size(2, 2, t), 1),
}

BAD_LEVELS = {
    "below_least": lambda least: least - 1,
    "negative": lambda least: -3,
    "bool": lambda least: True,
    "fractional": lambda least: 1.5,
}


@pytest.mark.parametrize("bad", sorted(BAD_LEVELS))
@pytest.mark.parametrize("entry", sorted(LEVEL_ENTRY_POINTS))
def test_level_gate(entry, bad):
    call, least = LEVEL_ENTRY_POINTS[entry]
    t = BAD_LEVELS[bad](least)
    with pytest.raises(ValueError, match=f"t must be an integer >= {least}, got"):
        call(t)


# Two-variable operands against one-variable structures, including the
# cases where the membership loops never shift: an empty axis, or level 0.
X1X2 = P("x1*x2")
EMPTY = MultisetGrid.build(ZZ, [[]])
EMPTY_PGRID = PuncturedGrid.build(EMPTY, [[]])
F5 = P("x1", ring=GF(5))
GRID2 = MultisetGrid.build(ZZ, [[0, 1], [0, 1]])
UNIT_PSI = {0: 1, 1: 1}

OPERAND_ENTRY_POINTS = {
    "level_membership_empty_axis": (
        lambda: level_membership(X1X2, EMPTY, 1), ArityMismatch),
    "level_membership_t0": (lambda: level_membership(X1X2, GRID, 0), ArityMismatch),
    "level_membership_ring": (lambda: level_membership(F5, GRID, 1), RingMismatch),
    "level_normal_form_empty_axis": (
        lambda: level_normal_form(X1X2, EMPTY, 1), ArityMismatch),
    "level_normal_form_t0": (lambda: level_normal_form(X1X2, GRID, 0), ArityMismatch),
    "level_normal_form_ring": (lambda: level_normal_form(F5, GRID, 1), RingMismatch),
    "punctured_membership_empty_axis": (
        lambda: punctured_membership(X1X2, EMPTY_PGRID, 1), ArityMismatch),
    "punctured_membership_t0": (
        lambda: punctured_membership(X1X2, PGRID, 0), ArityMismatch),
    "mixed_membership_empty_axis": (
        lambda: mixed_membership(X1X2, EMPTY_PGRID, 1), ArityMismatch),
    "mixed_membership_ring": (lambda: mixed_membership(F5, PGRID, 1), RingMismatch),
    "in_vanishing_ideal_empty_spec": (
        lambda: in_vanishing_ideal(X1X2, VanishingSpec.build(MultisetGrid.build(ZZ, [[]]), {})),
        ArityMismatch),
    "in_vanishing_ideal_ring": (
        lambda: in_vanishing_ideal(F5, VanishingSpec.build(MultisetGrid.build(ZZ, [[]]), {})),
        RingMismatch),
    "nonzero_bound_extra_support": (
        lambda: nonzero_bound(X1, [[0, 1], [0, 1]], (1,)), ArityMismatch),
    "reduce": (
        lambda: reduce(X1X2, MonicFamily.build([P("x1^2 - x1")])), ArityMismatch),
    "monic_family": (
        lambda: MonicFamily.build([P("x1"), X1X2]), ArityMismatch),
    "monic_family_positional": (
        lambda: MonicFamily((P("x1"), X1X2), (0, 1)), ArityMismatch),
    "monic_family_replace": (
        lambda: MonicFamily.build([X1]).replace(members=(X1, F5), labels=(0, 1)),
        RingMismatch),
    "poly_mul": (lambda: X1 * F5, RingMismatch),
    # one per-axis list entry per axis, counted before any zip or index
    "multiset_grid_short_psis": (
        lambda: MultisetGrid.build(ZZ, [[0, 1], [0, 1]], [UNIT_PSI]), ArityMismatch),
    "multiset_grid_extra_psis": (
        lambda: MultisetGrid.build(ZZ, [[0, 1]], [UNIT_PSI, {0: 3}]), ArityMismatch),
    "grid_from_json_short_psis": (
        lambda: grid_from_json({"S": [[0, 1], [0, 1]], "psi": [{"0": 1, "1": 1}]}, ZZ),
        ArityMismatch),
    "punctured_grid_short_punctures": (
        lambda: PuncturedGrid.build(GRID2, [[0]]), ArityMismatch),
    "punctured_grid_extra_punctures": (
        lambda: PuncturedGrid.build(GRID, [[0], [1]]), ArityMismatch),
    # B's exponent vectors have one entry per axis
    "vanishing_spec_long_vectors": (
        lambda: VanishingSpec.build(
            MultisetGrid.build(ZZ, [[0, 1]]), {(0,): [(1, 7)], (1,): [(1, 7)]}),
        ArityMismatch),
    "vanishing_spec_short_vectors": (
        lambda: VanishingSpec.build(
            MultisetGrid.build(ZZ, [[0, 1], [0, 1]]), {p: [(1,)] for p in GRID2.grid_points()}),
        ArityMismatch),
    # a cover plane lives over the grid's ring and arity, checked as it is built
    "cover_instance_plane_ring": (lambda: CoverInstance.build(PGRID, [(F5, 1)], 1), RingMismatch),
    "cover_instance_plane_arity": (
        lambda: CoverInstance.build(PGRID, [(X1X2, 2)], 1), ArityMismatch),
    # an audited point's coordinates are ints, not floats or bools
    "blocking_audit_fractional_coordinate": (
        lambda: blocking_audit(2, 2, 1, [(0.5, 0), (1, 1)]), ValueError),
    "blocking_audit_bool_coordinate": (lambda: blocking_audit(2, 2, 1, [(True, 1)]), ValueError),
}


@pytest.mark.parametrize("entry", sorted(OPERAND_ENTRY_POINTS))
def test_operand_gate(entry):
    call, error = OPERAND_ENTRY_POINTS[entry]
    with pytest.raises(error):
        call()


PRIME_ENTRY_POINTS = {
    "GF": lambda q: GF(q),
    "affine_blocking_bound": lambda q: affine_blocking_bound(q, 2, 1),
    "blocking_audit": lambda q: blocking_audit(q, 2, 1, [(0, 0)]),
    "exists_blocking_of_size": lambda q: exists_blocking_of_size(q, 2, 1, 1),
    "minimal_blocking_size": lambda q: minimal_blocking_size(q, 2, 1),
}


@pytest.mark.parametrize("q", [0, 1, 4, 9])
@pytest.mark.parametrize("entry", sorted(PRIME_ENTRY_POINTS))
def test_prime_gate(entry, q):
    with pytest.raises(UnsupportedField, match=f"GF\\({q}\\) is not a prime field"):
        PRIME_ENTRY_POINTS[entry](q)


# Over ZZ/6 the difference 3 - 0 is a zero divisor, so {0, 3} fails (D).
R6 = Zmod(6)
GRID6 = MultisetGrid.build(R6, [[0, 3]])
PGRID6 = PuncturedGrid.build(GRID6, [[0]])
X1_6 = P("x1", ring=R6)

CONDITION_D_ENTRY_POINTS = {
    "level_membership": lambda: level_membership(X1_6, GRID6, 1),
    "level_certificate": lambda: level_certificate(X1_6, GRID6, 1),
    "punctured_membership": lambda: punctured_membership(X1_6, PGRID6, 1),
    "punctured_analysis": lambda: punctured_analysis(X1_6, PGRID6, 1),
    "mixed_membership": lambda: mixed_membership(X1_6, PGRID6, 1),
    "mixed_certificate": lambda: mixed_certificate(X1_6, PGRID6, 1),
    "min_extra_degree": lambda: min_extra_degree(PGRID6, 1),
    "covering_audit": lambda: covering_audit(CoverInstance.build(PGRID6, [], 1)),
    "nonzero_bound": lambda: nonzero_bound(X1_6, [[0, 3]], (1,)),
}


@pytest.mark.parametrize("entry", sorted(CONDITION_D_ENTRY_POINTS))
def test_condition_d_gate(entry):
    with pytest.raises(Inapplicable) as info:
        CONDITION_D_ENTRY_POINTS[entry]()
    assert info.value.axes == (1,)


MULTIPLICITY_ENTRY_POINTS = {
    "MultisetGrid.build": lambda m: MultisetGrid.build(ZZ, [[0]], [{0: m}]),
    "grid_from_json": lambda m: grid_from_json({"S": [[0]], "psi": [{"0": m}]}, ZZ),
    "root_product": lambda m: root_product(ZZ, 1, 0, [0], {0: m}),
}

BAD_MULTIPLICITIES = {
    "zero": 0,
    "negative": -2,
    "bool": True,
    "fractional": 1.5,
    "integral_float": 2.0,
    "string": "2",
}


@pytest.mark.parametrize("bad", sorted(BAD_MULTIPLICITIES))
@pytest.mark.parametrize("entry", sorted(MULTIPLICITY_ENTRY_POINTS))
def test_multiplicity_gate(entry, bad):
    m = BAD_MULTIPLICITIES[bad]
    message = f"psi(0) must be an integer >= 1, got {m!r}"
    with pytest.raises(NonPositiveMultiplicity, match=re.escape(message)):
        MULTIPLICITY_ENTRY_POINTS[entry](m)


def test_psi_keys_are_read_as_ring_elements():
    # 7 is 2 in GF(5): a psi key names the element it canonicalizes to
    grid = MultisetGrid.build(GF(5), [[0, 7]], [{0: 1, 7: 2}])
    assert dict(grid.axes[0].psi) == {0: 1, 2: 2}
    assert MultisetGrid.build(ZZ, [[0, 7]]).axes[0].replace(ring=GF(5)).support == (0, 2)
    with pytest.raises(ValueError, match=re.escape("psi keys 2 and 7 both name the element 2")):
        MultisetGrid.build(GF(5), [[0, 2]], [{0: 1, 2: 2, 7: 3}])


# Every other count or exponent read from outside goes through the same
# integer rule: entry point -> (call with the value, least valid value,
# the error it raises).
CERTIFICATE = certificate_to_json(level_certificate(P("x1^2 - x1"), GRID, 1))
INSTANCE = {"pgrid": {"ring": "ZZ", "S": [[0, 1]], "E": [[0]]}, "planes": [{"poly": "x1"}], "t": 1}

NATURAL_ENTRY_POINTS = {
    "VanishingSpec.build_B": (
        lambda e: VanishingSpec.build(GRID, {(0,): [(e,)], (1,): [(1,)]}), 0, ValueError),
    "grid_from_json_B": (
        lambda e: grid_from_json({"S": [[0, 1]], "B": {"(0,)": [[e]], "(1,)": [[1]]}}, ZZ),
        0, ValueError),
    "MultiplicityTable": (
        lambda e: MultiplicityTable(1, ("a",), {(0, 0, "a"): e}), 0, ValueError),
    "point_cover_threshold": (
        lambda m: point_cover_threshold((1, m), 1), 1, NonPositiveMultiplicity),
    "affine_blocking_bound_n": (lambda n: affine_blocking_bound(2, n, 1), 1, ValueError),
    "blocking_audit_n": (lambda n: blocking_audit(2, n, 1, [(0,)]), 1, ValueError),
    "exists_blocking_of_size_n": (lambda n: exists_blocking_of_size(2, n, 1, 1), 1, ValueError),
    "minimal_blocking_size_n": (lambda n: minimal_blocking_size(2, n, 1), 1, ValueError),
    "exists_blocking_of_size_size": (
        lambda k: exists_blocking_of_size(2, 2, 1, k), 0, ValueError),
    # the builder oracle in conftest, which reads exponents by the same rule
    "monic_power_product": (
        lambda e: monic_power_product([P("x1^2 - x1")], [(e,)]), 0, ValueError),
    "Poly_nvars": (lambda n: Poly(ZZ, n), 1, ValueError),
    # exponent vectors: each entry of alpha, gamma and beta
    "staircase_count_alpha": (lambda e: staircase_count((2, e), 1), 0, ValueError),
    "punctured_staircase_count_alpha": (
        lambda e: punctured_staircase_count((2, e), (1, 0), 1), 0, ValueError),
    "punctured_staircase_count_gamma": (
        lambda e: punctured_staircase_count((2, 2), (1, e), 1), 0, ValueError),
    "nonzero_bound_beta": (lambda e: nonzero_bound(X1, [[0, 1]], (e,)), 0, ValueError),
    "root_product_nvars": (lambda n: root_product(ZZ, n, 0, [0]), 1, ValueError),
    "instance_from_json_degree": (
        lambda e: instance_from_json({**INSTANCE, "planes": [{"poly": "x1", "degree": e}]}),
        0, ParseError),
    "verify_certificate_json_nvars": (
        lambda n: verify_certificate_json({**CERTIFICATE, "nvars": n}), 1, ParseError),
    # the modulus of ZZ/m, and GF(p)'s p, whose ints 0 and 1 fail the prime gate
    "Zmod": (lambda m: Zmod(m), 2, ValueError),
    "GF": (lambda p: GF(p), 0, ValueError),
}

BAD_NATURALS = {
    "below_least": lambda least: least - 1,
    "bool": lambda least: True,
    "fractional": lambda least: 1.5,
    "string": lambda least: "2",
}


@pytest.mark.parametrize("bad", sorted(BAD_NATURALS))
@pytest.mark.parametrize("entry", sorted(NATURAL_ENTRY_POINTS))
def test_natural_number_gate(entry, bad):
    call, least, error = NATURAL_ENTRY_POINTS[entry]
    value = BAD_NATURALS[bad](least)
    message = f"must be an integer >= {least}, got {value!r}"
    with pytest.raises(error, match=re.escape(message)):
        call(value)


# A Poly exponent entry follows the same rule; a negative int keeps the
# message that names the whole exponent vector.
@pytest.mark.parametrize("bad", sorted(BAD_NATURALS))
def test_poly_exponent_gate(bad):
    value = BAD_NATURALS[bad](0)
    message = (f"negative exponent in (1, {value})" if bad == "below_least"
               else f"exponent in (1, {value!r}) must be an integer >= 0, got {value!r}")
    with pytest.raises(ValueError, match=re.escape(message)):
        Poly(ZZ, 2, {(1, value): 1})
