"""Every entry point applies the same input rule the same way.

One parametrized test per rule: the level t, the operand ring and arity,
the prime q, Condition (D), the multiplicity psi(u), and every other count
or exponent.
"""

import pickle
import re

import pytest

from combnull import (
    GF,
    ZZ,
    ArityMismatch,
    CoverInstance,
    GammaExceedsAlpha,
    Inapplicable,
    InfiniteComplement,
    MonicFamily,
    MultiplicityTable,
    MultisetGrid,
    NonPositiveMultiplicity,
    ParseError,
    Poly,
    PuncturedGrid,
    Ring,
    RingMismatch,
    ScaleExceeded,
    UncertifiedBasis,
    UnsupportedField,
    VanishingSpec,
    Zmod,
    affine_blocking_bound,
    blocking_audit,
    buchberger_certifies,
    complement,
    covering_audit,
    exists_blocking_of_size,
    in_level_ideal,
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
    multiplicity_family,
    nonzero_bound,
    parse_expvec,
    point_cover_threshold,
    punctured_analysis,
    punctured_membership,
    punctured_staircase_count,
    reduce,
    root_product,
    s_polynomial,
    staircase_count,
    taylor_shift,
)
from combnull import polynomials, staircase
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
    "in_level_ideal": (lambda t: in_level_ideal(X1, GRID, t), 0),
    "level_normal_form": (lambda t: level_normal_form(X1, GRID, t), 0),
    "level_certificate": (lambda t: level_certificate(X1, GRID, t), 0),
    "punctured_membership": (lambda t: punctured_membership(X1, PGRID, t), 0),
    "punctured_analysis": (lambda t: punctured_analysis(X1, PGRID, t), 1),
    "mixed_basis": (lambda t: mixed_basis(PGRID, t), 1),
    "mixed_membership": (lambda t: mixed_membership(X1, PGRID, t), 1),
    "mixed_certificate": (lambda t: mixed_certificate(X1, PGRID, t), 1),
    "min_extra_degree": (lambda t: min_extra_degree(PGRID, t), 1),
    "point_cover_threshold": (lambda t: point_cover_threshold((1, 2), t), 1),
    "CoverInstance": (lambda t: CoverInstance(PGRID, [], t), 1),
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
    "in_level_ideal_t0": (lambda: in_level_ideal(X1X2, GRID, 0), ArityMismatch),
    # GRID6 (below) fails Condition (D): the operand is checked first
    "in_level_ideal_ring": (lambda: in_level_ideal(F5, GRID6, 1), RingMismatch),
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
    "poly_short_exponent": (lambda: Poly(ZZ, 2, {(1,): 1}), ArityMismatch),
    "taylor_shift_long_point": (lambda: taylor_shift(X1, (0, 0)), ArityMismatch),
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
    "cover_instance_plane_ring": (lambda: CoverInstance(PGRID, [(F5, 1)], 1), RingMismatch),
    "cover_instance_plane_arity": (
        lambda: CoverInstance(PGRID, [(X1X2, 2)], 1), ArityMismatch),
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
    "in_level_ideal": lambda: in_level_ideal(X1_6, GRID6, 1),
    "level_certificate": lambda: level_certificate(X1_6, GRID6, 1),
    "punctured_membership": lambda: punctured_membership(X1_6, PGRID6, 1),
    "punctured_analysis": lambda: punctured_analysis(X1_6, PGRID6, 1),
    "mixed_membership": lambda: mixed_membership(X1_6, PGRID6, 1),
    "mixed_certificate": lambda: mixed_certificate(X1_6, PGRID6, 1),
    "min_extra_degree": lambda: min_extra_degree(PGRID6, 1),
    "covering_audit": lambda: covering_audit(CoverInstance(PGRID6, [], 1)),
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
    "Poly_power": (lambda k: X1 ** k, 0, ValueError),
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


# A Poly exponent entry follows the same rule, naming the whole exponent vector.
@pytest.mark.parametrize("bad", sorted(BAD_NATURALS))
def test_poly_exponent_gate(bad):
    value = BAD_NATURALS[bad](0)
    message = f"exponent in (1, {value!r}) must be an integer >= 0, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Poly(ZZ, 2, {(1, value): 1})


# Every other malformed value: entry point -> (call, error, message).
OTHER_ENTRY_POINTS = {
    "Poly_negative_power": (
        lambda: X1 ** -1, ValueError, "the power must be an integer >= 0, got -1"),
    "Ring_modulus_of_ZZ": (lambda: Ring("ZZ", 5), ValueError, "ZZ takes no modulus"),
    "Ring_unknown_kind": (lambda: Ring("RR"), ValueError, "unknown ring kind 'RR'"),
    "Ring_negative_power": (lambda: ZZ.pow(2, -1), ValueError, "negative exponent"),
    "MonicFamily_label_count": (
        lambda: MonicFamily((X1,), (0, 1)), ValueError, "one label per member required"),
    # S(x1*x2 + x1, x2^2) = x1*x2 leaves the remainder -x1
    "MonicFamily_certify": (
        lambda: MonicFamily.build([X1X2 + P("x1", nvars=2), P("x2^2")]).certify(),
        UncertifiedBasis, "Buchberger test inconclusive for this family"),
    "punctured_staircase_count_lengths": (
        lambda: punctured_staircase_count((1, 2), (1,), 1), GammaExceedsAlpha,
        "alpha and gamma must share a length"),
    "parse_expvec_empty": (lambda: parse_expvec("()"), ValueError, "empty exponent vector"),
    "parse_expvec_entry": (
        lambda: parse_expvec("(1,a)"), ValueError, "bad exponent vector '(1,a)'"),
    "multiplicity_family_arity": (
        lambda: multiplicity_family(ZZ, [[0, 1]], MultiplicityTable(2, ("a",))), ValueError,
        "table arity disagrees with the axis count"),
    "nonzero_bound_beta_length": (
        lambda: nonzero_bound(X1, [[0, 1]], (1, 0)), ValueError, "beta of length 2 in 1 variables"),
}


@pytest.mark.parametrize("entry", sorted(OTHER_ENTRY_POINTS))
def test_other_gates(entry):
    call, error, message = OTHER_ENTRY_POINTS[entry]
    with pytest.raises(error, match=re.escape(message)):
        call()


# One construction gate per value type: a grid or cover instance checks its
# fields in __init__, so its build (where it has one), its positional
# constructor and replace refuse an input with the same error and message.
# rule -> (error, message, the calls that must raise it).
SPEC = VanishingSpec.build(GRID, {(0,): [(1,)], (1,): [(1,)]})
PSI_2 = MultisetGrid.build(ZZ, [[0, 1]], [{0: 2, 1: 1}])
COVER = CoverInstance(PGRID, [(P("x1 - 1"), 1)], 1)


def _spec_paths(B):
    """``B`` given to build, the positional constructor and replace."""
    return (lambda: VanishingSpec.build(GRID, B), lambda: VanishingSpec(ZZ, GRID.axes, B),
            lambda: SPEC.replace(B=B))


def _pgrid_paths(grid, punctures):
    """``punctures`` given to build, the positional constructor and replace."""
    base = PuncturedGrid.build(grid, [[]] * grid.nvars)
    return (lambda: PuncturedGrid.build(grid, punctures),
            lambda: PuncturedGrid(grid.ring, grid.axes, punctures),
            lambda: base.replace(punctures=punctures))


def _cover_paths(planes, t):
    """``planes`` and ``t`` given to the positional constructor and replace."""
    return lambda: CoverInstance(PGRID, planes, t), lambda: COVER.replace(planes=planes, t=t)


CONSTRUCTION_GATES = {
    "multiset_grid_no_axes": (ValueError, "the axis count must be an integer >= 1, got 0", (
        lambda: MultisetGrid.build(ZZ, []), lambda: MultisetGrid(ZZ, ()),
        lambda: GRID.replace(axes=()), lambda: grid_from_json({"S": []}, ZZ),
        lambda: PuncturedGrid(ZZ, (), ()), lambda: VanishingSpec(ZZ, (), {}))),
    "punctured_grid_extra_sets": (
        ArityMismatch, "2 axes but 3 puncture sets", _pgrid_paths(GRID2, [[0], [0], [1]])),
    "punctured_grid_short_sets": (
        ArityMismatch, "2 axes but 1 puncture sets", _pgrid_paths(GRID2, [[0]])),
    "punctured_grid_outside_support": (
        ValueError, "puncture (7,) not inside axis support", _pgrid_paths(GRID, [[7]])),
    "punctured_grid_element": (
        ParseError, "not an element of ZZ: '0'", _pgrid_paths(GRID, [["0"]])),
    "vanishing_spec_psi": (
        ValueError, "a vanishing spec takes no psi: its multiplicities are in B",
        (lambda: VanishingSpec.build(PSI_2, SPEC.B), lambda: VanishingSpec(ZZ, PSI_2.axes, SPEC.B),
         lambda: SPEC.replace(axes=PSI_2.axes))),
    "vanishing_spec_missing_point": (
        ValueError, "missing B entry for grid point (1,)", _spec_paths({(0,): [(1,)]})),
    "vanishing_spec_stray_point": (
        ValueError, "B entry for (5,), which is not a grid point",
        _spec_paths({**SPEC.B, (5,): [(1,)]})),
    "vanishing_spec_exponent": (
        ValueError, "exponent in B at (0,) must be an integer >= 0, got -1",
        _spec_paths({(0,): [(-1,)], (1,): [(1,)]})),
    "vanishing_spec_vector_length": (
        ArityMismatch, "B at (0,) needs exponent vectors of length 1",
        _spec_paths({(0,): [(1, 0)], (1,): [(1,)]})),
    "vanishing_spec_infinite_complement": (
        InfiniteComplement, "B at (0,) leaves an infinite staircase complement",
        _spec_paths({(0,): [], (1,): [(1,)]})),
    "cover_instance_grid_kind": (
        ValueError, "a cover instance needs a PuncturedGrid, got MultisetGrid",
        (lambda: CoverInstance(MultisetGrid.build(ZZ, [[0, 1]]), [], 1),
         lambda: COVER.replace(pgrid=GRID))),
    "cover_instance_level": (
        ValueError, "t must be an integer >= 1, got 0", _cover_paths((), 0)),
    "cover_instance_plane_ring": (RingMismatch, "GF(5) vs ZZ", _cover_paths([(F5, 1)], 1)),
    "cover_instance_plane_arity": (
        ArityMismatch, "2 vs 1 variables", _cover_paths([(X1X2, 2)], 1)),
    "cover_instance_zero_plane": (
        ValueError, "a plane polynomial must be nonzero", _cover_paths([(P("0"), 0)], 1)),
    "cover_instance_plane_degree": (
        ValueError, "declared degree 2 but deg = 1 for x1 - 1",
        _cover_paths([(P("x1 - 1"), 2)], 1)),
}


@pytest.mark.parametrize("rule", sorted(CONSTRUCTION_GATES))
def test_every_construction_path_passes_one_gate(rule):
    error, message, calls = CONSTRUCTION_GATES[rule]
    for call in calls:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


def test_punctured_grid_replace_reads_punctures_as_build_does():
    # over GF(5), 7 is 2 and 6 is 1: every way of naming E_1 = {1, 2} and
    # E_2 = {1} makes the grid build makes
    grid = MultisetGrid.build(GF(5), [[0, 1, 2], [0, 1]])
    built = PuncturedGrid.build(grid, [[1, 2], [1]])
    base = PuncturedGrid.build(grid, [[0], [0]])
    for punctures in (((2, 1), (1,)), ((1, 2, 1), (1, 1)), ((7, 1), (6,)), ([7, 6], {1})):
        for again in (base.replace(punctures=punctures),
                      PuncturedGrid(grid.ring, grid.axes, punctures)):
            assert again == built and again.punctures == ((1, 2), (1,))
            assert again.puncture_axes == built.puncture_axes
            assert again.off_axes == built.off_axes


def test_cover_instance_stores_checked_planes():
    square = PuncturedGrid.build(MultisetGrid.build(ZZ, [[0, 1], [0, 1]]), [[0], [0]])
    planes = [[P("x1 - 1", nvars=2), 1], [P("x2 - 1", nvars=2), 1]]
    inst = CoverInstance(square, planes, 1)
    shown = ("CoverInstance(pgrid=PuncturedGrid(ring=Ring(kind='ZZ', modulus=None), axes=("
             "Axis(support=(0, 1), psi=mappingproxy({0: 1, 1: 1})), "
             "Axis(support=(0, 1), psi=mappingproxy({0: 1, 1: 1}))), punctures=((0,), (0,))), "
             "planes=((Poly(ZZ, 'x1 - 1'), 1), (Poly(ZZ, 'x2 - 1'), 1)), t=1)")
    assert repr(inst) == shown
    # positional, named and mixed calls store the same values, planes as pairs
    assert inst == CoverInstance(pgrid=square, planes=inst.planes, t=1)
    assert inst == CoverInstance(square, planes=planes, t=1)
    assert list(vars(inst)) == list(CoverInstance._fields)
    with pytest.raises(TypeError, match="unhashable"):
        hash(inst)
    again = pickle.loads(pickle.dumps(inst))
    assert type(again) is CoverInstance and again == inst and repr(again) == shown
    # replace checks again and keeps every other field
    moved = inst.replace(t=2)
    assert moved.t == 2 and moved == CoverInstance(square, planes, 2) != inst
    for bad in (
        lambda: CoverInstance(square, planes),                  # missing, positional
        lambda: CoverInstance(planes=planes, t=1),              # missing, named
        lambda: CoverInstance(square, planes, 1, "extra"),      # one positional too many
        lambda: CoverInstance(square, planes, t=1, extra=1),    # unknown name
        lambda: CoverInstance(square, planes, 1, pgrid=square),  # a field given twice
        lambda: inst.replace(extra=1),
    ):
        with pytest.raises(TypeError):
            bad()


# Refusals at the default limits that a level normal form reaches as it
# goes, past its up-front count: entry point -> (call, message).
CUBE3 = MultisetGrid.build(ZZ, [[0, 1]] * 3)
SCALE_ENTRY_POINTS = {
    # g = x^2 - x: the member g^2000 needs powers whose running count passes 10^6
    "level_normal_form_powers": (
        lambda: level_normal_form(P("x1^4000"), GRID, 2000),
        "the level-2000 normal form needs over 1000000 terms"),
    # the member g1^100 g2^100 g3^100 has 101^3 terms
    "level_normal_form_member": (
        lambda: level_normal_form(P("x1^200*x2^200*x3^200"), CUBE3, 300),
        "the level-300 normal form needs over 1000000 terms"),
}


@pytest.mark.parametrize("entry", sorted(SCALE_ENTRY_POINTS))
def test_scale_gate(entry):
    call, message = SCALE_ENTRY_POINTS[entry]
    with pytest.raises(ScaleExceeded, match=f"^{re.escape(message)}$"):
        call()


# The one term limit, polynomials.MAX_BASIS_TERMS, and the one point limit,
# staircase.MAX_GRID_POINTS, are read where they are defined by every reader,
# so one assignment of each reaches them all.  Each call answers at the
# default limits: unit -> (module, name, small limit, {reader: call}).
PGRID2 = PuncturedGrid.build(GRID2, [[0], [0]])
ORIGIN6 = PuncturedGrid.build(MultisetGrid.build(R6, [[0]] * 2), [[0]] * 2)
# 2*x1's leading coefficient is a zero divisor in ZZ/6, so the audit expands
# the product: 1 * 2 + 2 * 2 term products, after 2 + 2 term evaluations
# at its one point
PLANES6 = [(P(f"2*x1 - {c}", R6, 2), 1) for c in (1, 5)]
LIMITS = {
    "terms": (polynomials, "MAX_BASIS_TERMS", 5, {
        "root_product": lambda: root_product(ZZ, 1, 0, [0, 1, 2]),
        "level_basis": lambda: level_basis(GRID2, 2),
        "mixed_basis": lambda: mixed_basis(PGRID2, 2),
        "level_normal_form": lambda: level_normal_form(P("x1^20"), GRID, 1),
        # two variables pack 2 * 3 fields
        "reduce": lambda: reduce(X1X2, MonicFamily.build([P("x1", nvars=2)])),
        "s_polynomial": lambda: s_polynomial(X1X2, P("x1^2", nvars=2)),
        # an inconclusive sweep keeps no plan, so every call packs afresh
        "buchberger_certifies": lambda: buchberger_certifies(
            MonicFamily.build([X1X2 + P("x1", nvars=2), P("x2^2")])),
        # a certified family keeps its plan, which the second call reuses
        "buchberger_certifies_kept_plan": lambda: buchberger_certifies(
            MonicFamily.build([P("x1^2 - x1", nvars=2), P("x1*x2 - x2")])),
        "covering_audit_plane_product": lambda: covering_audit(
            CoverInstance(ORIGIN6, PLANES6, 1)),
        # one plane of 3 terms at the 4 points of GRID2
        "covering_audit_walk": lambda: covering_audit(
            CoverInstance(PGRID2, [(P("x1 + x2 - 1"), 1)], 1)),
    }),
    "points": (staircase, "MAX_GRID_POINTS", 3, {
        "grid_points": lambda: list(GRID2.grid_points()),
        "level_membership": lambda: level_membership(X1X2, GRID2, 1),
        "nonzero_bound": lambda: nonzero_bound(X1X2, [[0, 1], [0, 1]], (1, 1)),
        "covering_audit": lambda: covering_audit(CoverInstance(PGRID2, [], 1)),
        "complement": lambda: complement({(2, 0), (0, 2)}, 2),
    }),
}


@pytest.mark.parametrize("unit, entry", [
    (unit, entry) for unit, (*_, readers) in sorted(LIMITS.items()) for entry in sorted(readers)])
def test_one_assignment_reaches_every_reader(monkeypatch, unit, entry):
    module, name, small, readers = LIMITS[unit]
    readers[entry]()
    monkeypatch.setattr(module, name, small)
    with pytest.raises(ScaleExceeded, match=f"(over|the limit of) {small}( |$)"):
        readers[entry]()
