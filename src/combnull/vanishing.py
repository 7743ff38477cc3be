"""Ideals cut out by shifted-support conditions on a finite grid.

A ``VanishingSpec`` is a ``MultisetGrid`` with every multiplicity 1 plus a
table B that assigns to every grid point a a set B_a of exponent vectors;
the ideal consists of the polynomials whose shift to a has support inside
the upset of B_a, for every grid point.  The grid supplies the axes, the
point enumeration and Condition (D); membership in the ideal is decidable
coefficient by coefficient.

Whether a monic family inside the ideal is a Groebner basis of it can be
certified numerically: under Condition (D) on every axis, the family is a
Groebner basis exactly when the total per-point staircase count equals the
staircase count of the leading exponents.  When Condition (D) fails the
certification is inapplicable and is reported as such, never as a verdict.
"""

from __future__ import annotations

from functools import partial
from typing import Mapping, Sequence

from .errors import (
    ArityMismatch,
    InfiniteComplement,
    InternalInvariantError,
    NotCertified,
    NotInIdeal,
)
from .multiset_ideals import MultisetGrid, PuncturedGrid, _grid_condition
from .polynomials import Poly, PowerTable, _power_products, _root_terms
from .reduction import MonicFamily, ReductionOutcome, decompose_member
from .rings import Element, FrozenValue, Ring
from .staircase import complement, has_finite_complement, in_upset, require_int


class VanishingSpec(MultisetGrid):
    """A grid with one support-upset generator set per point.

    ``B`` maps each grid point (a tuple of axis values), and no other key, to
    a frozenset of exponent vectors.  Every complement of an upset of B_a must
    be finite, otherwise membership would constrain infinitely many coefficients.
    """

    _fields = ("ring", "axes", "B")

    def __init__(self, ring: Ring, axes: tuple, B: Mapping):
        super().__init__(ring, axes)
        if any(m != 1 for axis in axes for m in axis.psi.values()):
            raise ValueError("a vanishing spec takes no psi: its multiplicities are in B")
        table = {}
        for point in self.grid_points():
            if point not in B:
                raise ValueError(f"missing B entry for grid point {point}")
            gens = frozenset(tuple(require_int(e, 0, f"exponent in B at {point}", ValueError)
                                   for e in v) for v in B[point])
            if any(len(v) != self.nvars for v in gens):
                raise ArityMismatch(f"B at {point} needs exponent vectors of length {self.nvars}")
            if not has_finite_complement(gens, self.nvars):
                raise InfiniteComplement(f"B at {point} leaves an infinite staircase complement")
            table[point] = gens
        if len(table) != len(B):
            stray = next(key for key in B if key not in table)
            raise ValueError(f"B entry for {stray}, which is not a grid point")
        self.__dict__["B"] = table

    @classmethod
    def build(cls, grid: MultisetGrid, B: Mapping) -> "VanishingSpec":
        if isinstance(grid, PuncturedGrid):
            raise ValueError("a vanishing spec takes no puncture set E")
        return cls(grid.ring, grid.axes, B)


def in_vanishing_ideal(f: Poly, spec: VanishingSpec) -> bool:
    """Membership test straight from the defining support conditions (not
    gated by Condition (D), since they define the ideal)."""
    checks = ((a, partial(in_upset, generators=spec.B[a])) for a in spec.grid_points())
    return _grid_condition(f, spec, checks)


def grid_staircase_count(spec: VanishingSpec) -> int:
    """Sum over grid points of the staircase-complement sizes of B_a."""
    total = 0
    for point in spec.grid_points():
        total += len(complement(spec.B[point], spec.nvars))
    return total


def leading_staircase_count(family: MonicFamily) -> int | None:
    """Size of the staircase complement of the leading exponents, or None
    when it is infinite (some axis bounds no witness on its own, as in an
    empty family)."""
    if not family.members:
        return None
    try:
        return len(complement(set(family.witnesses), family.nvars))
    except InfiniteComplement:
        return None


class GroebnerReport(FrozenValue):
    """Count comparison; ``verdict``: groebner, not_groebner or inapplicable.
    ``leading_count`` is None when the leading staircase is infinite."""

    _fields = ("condition_d", "grid_count", "leading_count", "verdict", "degenerate_empty_grid")

    @property
    def groebner(self) -> bool | None:
        if self.verdict == "inapplicable":
            return None
        return self.verdict == "groebner"

    def to_json_dict(self) -> dict:
        return {
            "condition_D": list(self.condition_d),
            "zeta1": self.grid_count,
            "zeta2": self.leading_count,
            "groebner": self.groebner,
            "verdict": self.verdict,
            "degenerate_empty_grid": self.degenerate_empty_grid,
        }


def certify_groebner(spec: VanishingSpec, family: MonicFamily) -> GroebnerReport:
    """Certify the Groebner property of a family inside the ideal.

    Every family member must satisfy the vanishing conditions; a violation
    is an input error.  With Condition (D) on every axis the verdict is
    decided by comparing the two staircase counts; without it the counts
    are still reported but the verdict is inapplicable.  The grid count is
    finite, so an infinite leading staircase (reported as None) is a
    not_groebner verdict under Condition (D).
    """
    for label, g, _ in family:
        if not in_vanishing_ideal(g, spec):
            raise NotInIdeal(f"family member {label!r} violates the conditions")
    cond = spec.condition_d()
    z1 = grid_staircase_count(spec)
    z2 = leading_staircase_count(family)
    if not all(cond):
        verdict = "inapplicable"
    elif z1 == z2:
        verdict = "groebner"
    else:
        if z2 is not None and z1 > z2:
            raise InternalInvariantError(
                f"grid count {z1} exceeds leading count {z2} under Condition (D)"
            )
        verdict = "not_groebner"
    return GroebnerReport(cond, z1, z2, verdict, spec.empty_grid)


def groebner_decompose(
    f: Poly, spec: VanishingSpec, family: MonicFamily
) -> ReductionOutcome:
    """Zero-remainder decomposition of a member over a certified family.

    Requires a ``groebner`` verdict from ``certify_groebner`` and
    membership of f, then divides through ``decompose_member``.
    """
    report = certify_groebner(spec, family)
    if report.verdict != "groebner":
        raise NotCertified(f"certification verdict is {report.verdict!r}")
    if not in_vanishing_ideal(f, spec):
        raise NotInIdeal("polynomial violates the vanishing conditions")
    return decompose_member(f, family)


class MultiplicityTable(FrozenValue):
    """Per-(axis, element, member) root multiplicities.

    Missing entries default to zero; stored entries must be naturals.
    """

    _fields = ("nvars", "member_labels", "values")

    def __init__(self, nvars: int, member_labels: tuple, values: Mapping | None = None):
        values = {} if values is None else values
        for key, v in values.items():
            require_int(v, 0, f"multiplicity at {key}", ValueError)
        self.__dict__.update(nvars=nvars, member_labels=member_labels, values=values)

    def get(self, axis: int, element, label) -> int:
        return self.values.get((axis, element, label), 0)


def multiplicity_family(
    ring: Ring,
    axes: Sequence[Sequence[Element]],
    table: MultiplicityTable,
):
    """Build the monic family and matching spec from a multiplicity table.

    Member ``lam`` is the product over axes i and elements u of
    ``(x_i - u)^table(i, u, lam)``; its greatest support point collects the
    per-axis multiplicity totals, and the generator set at a grid point a
    collects the per-member vectors ``(table(i, a_i, lam))_i``.
    """
    n = len(axes)
    if table.nvars != n:
        raise ValueError("table arity disagrees with the axis count")
    grid = MultisetGrid.build(ring, axes)
    members = []
    thetas = []
    for lam in table.member_labels:
        factors = []
        for i, axis in enumerate(grid.axes):
            column = {u: e for u in axis.support if (e := table.get(i, u, lam))}
            factors.append(PowerTable(ring, _root_terms(ring, column, column)))
        [(g, theta)] = _power_products(ring, factors, [(1,) * n])
        members.append(g)
        thetas.append(theta)
    family = MonicFamily.build(members, labels=table.member_labels)
    if tuple(family.witnesses) != tuple(thetas):
        raise InternalInvariantError("multiplicity totals disagree with witnesses")
    B = {
        point: {
            tuple(table.get(i, point[i], lam) for i in range(n))
            for lam in table.member_labels
        }
        for point in grid.grid_points()
    }
    return family, VanishingSpec.build(grid, B)
