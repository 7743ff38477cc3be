"""Level ideals of multiset grids, punctured and mixed variants.

A multiset grid fixes per axis a finite set of ring values with positive
multiplicities; its axis polynomial is the root product
``g_k = prod (x_k - u)^psi_k(u)``.  The level-t ideal is generated by all
products ``prod g_k^(alpha_k)`` with total exponent t; that family is
always a Groebner basis of the ideal, so the level normal form is division
by it, and is available unconditionally.  The division builds only the
members that the terms it meets call for, never the whole basis.

Under Condition (D) on every axis, which each ``Axis`` decides once, f
lies in the level-t ideal exactly when it vanishes to level t at every grid
point: the Taylor shift of f to the point has support only where the
per-axis multiplicity floors sum to at least t.  The level normal form
decides membership in the ideal with no grid scan, so under (D) it decides
that vanishing too.  It decides ``in_level_ideal`` and level certificates,
and, applied to subgrids, the punctured and mixed tests, since each of
those ideals asks for level vanishing on a union of subgrids.  Only
``level_membership`` still scans the grid point by point.  Gated
operations raise ``Inapplicable`` (never a boolean) on a Condition (D)
failure.

Puncturing removes a subgrid from the vanishing requirements; the mixed
ideal additionally keeps a relaxed requirement on the puncture.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from math import comb, prod
from operator import add, floordiv
from types import MappingProxyType
from typing import Mapping, Sequence
from weakref import WeakValueDictionary

from . import polynomials, staircase
from .errors import (
    ArityMismatch,
    EmptyPuncture,
    Inapplicable,
    InternalInvariantError,
    NonPositiveMultiplicity,
    NotMember,
    ScaleExceeded,
)
from .polynomials import (
    Poly,
    PowerTable,
    _on_axis,
    _power_products,
    _product_terms,
    _raw,
    _root_terms,
    taylor_shift,
)
# ``reduce`` is not called here: the benchmark's tracer test checks this binding (E1)
from .reduction import MonicFamily, ReductionOutcome, decompose_member, reduce
from .rings import Element, FieldsToJson, FrozenValue, Ring
from .staircase import compositions, require_int


# Every live ``Axis``, by ring, support and multiplicities.  The ring is part
# of the key: Fraction(1) == 1, and QQ must not share ZZ's axes.
_AXES = WeakValueDictionary()


def keyed_by_value(doc: Mapping, read, what: str, noun: str,
                   error: type[Exception] = ValueError) -> dict:
    """``doc`` (psi, basis, quotients or ``B``) keyed by the value ``read`` makes of each
    key; two keys naming one value raise ``error``: "{what} keys ... both name the {noun} v"."""
    given = {}
    for key in doc:
        u = read(key)
        if u in given:
            raise error(f"{what} keys {given[u]!r} and {key!r} both name the {noun} {u}")
        given[u] = key
    return {u: doc[key] for u, key in given.items()}


class Axis(FrozenValue):
    """One grid axis: sorted support values, their read-only multiplicities,
    and its axis polynomial ``g = prod (x - u)^psi(u)`` as sparse univariate
    ``(exponents, coefficients)`` tuples over the ring it was built over.
    ``condition_d`` is Condition (D): no difference of two support values
    is a zero divisor.  It is decided once, in ``__init__``; its pair scan
    costs no more than building g, and like ``terms`` and ``ring`` it is not
    a field.

    ``build`` interns: equal inputs over one ring return the same object, so
    g is computed once per distinct axis however many grids repeat it.  The
    table holds axes weakly.  ``replace``, ``pickle`` and ``copy`` go
    through ``build`` too, so g always follows the support and psi it is
    stored with, and two axes are equal exactly when they are one object:
    equality and hash are identity, and they see the ring, which the fields
    do not.

    ``powers`` is the axis's ``PowerTable`` of g^0, g^1, ...: the powers a
    level basis or a normal form needs are kept while the terms of g^2,
    g^3, ... plus their number stay within ``MAX_KEPT_POWER_TERMS``, for as
    long as the axis lives.
    """

    _fields = ("support", "psi")  # terms and ring follow from build's key
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, support: tuple, psi: Mapping, terms: tuple, ring: Ring):
        condition_d = not any(
            ring.is_zero_divisor(ring.sub(b, a)) for a, b in combinations(support, 2))
        self.__dict__.update(support=support, psi=psi, terms=terms, ring=ring,
                             condition_d=condition_d, powers=PowerTable(ring, terms))

    def replace(self, **changes) -> "Axis":
        """The interned axis with ``changes`` to ``ring``, ``support`` or ``psi``."""
        fields = {"ring": self.ring, "support": self.support, "psi": self.psi} | changes
        return Axis.build(fields.pop("ring"), fields.pop("support"), **fields)

    def __reduce__(self):
        return Axis.build, (self.ring, self.support, dict(self.psi))

    @classmethod
    def build(cls, ring: Ring, values: Sequence[Element], psi=None) -> "Axis":
        elements = {ring.canon(u) for u in values}
        support = tuple(sorted(elements))
        if psi is not None and psi.keys() != elements:
            # keys in another form, or for absent elements: read each as its element
            psi = keyed_by_value(psi, ring.canon, "psi", "element")
        mults = []
        for u in support:
            m = 1 if psi is None else psi.get(u)
            mults.append(require_int(m, 1, f"psi({u})", NonPositiveMultiplicity))
        # psi holds every support element now, so it holds others iff it is longer
        if psi is not None and len(psi) > len(support):
            raise ValueError(f"multiplicities for absent elements {set(psi) - set(support)}")
        key = (ring, support, tuple(mults))
        axis = _AXES.get(key)
        if axis is None:
            table = dict(zip(support, mults))
            terms = _root_terms(ring, support, table)
            axis = _AXES[key] = cls(support, MappingProxyType(table), terms, ring)
        return axis

    @property
    def degree(self) -> int:
        """Total multiplicity, the degree of the axis polynomial."""
        return sum(self.psi.values())


class MultisetGrid(FrozenValue):
    """A finite grid S_1 x ... x S_n of ``Axis`` objects over one ring, n >= 1."""

    _fields = ("ring", "axes")

    def __init__(self, ring: Ring, axes: tuple):
        require_int(len(axes), 1, "the axis count", ValueError)
        for axis in axes:  # an axis's values and g are canonical in its own ring only
            if axis.ring is not ring:
                ring.require_same(axis.ring)
        self.__dict__.update(ring=ring, axes=axes)

    @classmethod
    def build(cls, ring: Ring, supports: Sequence, psis: Sequence | None = None) -> "MultisetGrid":
        """One ``Axis.build`` per support and psi table (None: every psi is 1)."""
        if psis is None:
            psis = [None] * len(supports)
        if len(psis) != len(supports):
            raise ArityMismatch(f"{len(supports)} axes but {len(psis)} multiplicity tables")
        return cls(ring, tuple(Axis.build(ring, S, psi) for S, psi in zip(supports, psis)))

    @property
    def nvars(self) -> int:
        return len(self.axes)

    def axis_poly(self, k: int) -> Poly:
        return _on_axis(self.ring, self.nvars, k, self.axes[k].terms)

    @property
    def empty_grid(self) -> bool:
        return any(not axis.support for axis in self.axes)

    def grid_points(self):
        """Grid points in lexicographic order of canonical element values,
        counted before any is listed: more than ``staircase.MAX_GRID_POINTS``
        of them is ``ScaleExceeded``."""
        count, limit = prod(len(axis.support) for axis in self.axes), staircase.MAX_GRID_POINTS
        if count > limit:
            raise ScaleExceeded(f"{count} grid points exceed the limit of {limit}")
        return product(*(axis.support for axis in self.axes))

    def nonzero_points(self, f: Poly):
        """The grid points where f is nonzero, in ``grid_points`` order; the
        operand and the point count are checked at the call."""
        f.require_on(self.ring, self.nvars)
        zero = self.ring.zero
        return (point for point in self.grid_points() if f.evaluate(point) != zero)

    def condition_d(self) -> tuple:
        return tuple(axis.condition_d for axis in self.axes)

    def require_condition_d(self) -> None:
        cond = self.condition_d()
        if not all(cond):
            raise Inapplicable([k + 1 for k, ok in enumerate(cond) if not ok])

    def psi_at(self, point) -> tuple:
        return tuple(axis.psi[v] for axis, v in zip(self.axes, point))


class PuncturedGrid(MultisetGrid):
    """A multiset grid with one punctured subgrid E_k of S_k per axis, each
    stored as the sorted tuple of its canonical values.

    Each axis is split once into two interned sub-axes with the grid's psi:
    ``puncture_axes`` on E_k and ``off_axes`` on S_k minus E_k.  Like an
    axis's ``terms`` they are not fields.
    """

    _fields = ("ring", "axes", "punctures")

    def __init__(self, ring: Ring, axes: tuple, punctures: Sequence):
        super().__init__(ring, axes)
        if len(punctures) != len(axes):
            raise ArityMismatch(f"{len(axes)} axes but {len(punctures)} puncture sets")
        Es, on, off = [], [], []
        for axis, E in zip(axes, punctures):
            E = tuple(sorted({ring.canon(u) for u in E}))
            if not set(E) <= set(axis.support):
                raise ValueError(f"puncture {E} not inside axis support")
            rest = [u for u in axis.support if u not in E]
            Es.append(E)
            on.append(axis.replace(support=E, psi={u: axis.psi[u] for u in E}))
            off.append(axis.replace(support=rest, psi={u: axis.psi[u] for u in rest}))
        self.__dict__.update(punctures=tuple(Es), puncture_axes=tuple(on), off_axes=tuple(off))

    @classmethod
    def build(cls, grid: MultisetGrid, punctures: Sequence) -> "PuncturedGrid":
        if hasattr(grid, "B"):  # a VanishingSpec
            raise ValueError("a punctured grid takes no vanishing table B")
        return cls(grid.ring, grid.axes, punctures)

    def _seeded_powers(self) -> list:
        """Per axis, a new ``PowerTable`` of ``(g_k / h_k) g_k^e``."""
        return [PowerTable(self.ring, axis.terms, off.terms)
                for axis, off in zip(self.axes, self.off_axes)]

    def off_product(self) -> Poly:
        """The product of the off-puncture axis polynomials over all axes."""
        tables = [axis.powers for axis in self.off_axes]
        return _power_products(self.ring, tables, [(1,) * self.nvars])[0][0]

    def off_sums(self) -> list:
        """Per axis, the multiplicity total off the puncture: deg(g_k / h_k)."""
        return [axis.degree for axis in self.off_axes]

    def off_pieces(self) -> list:
        """The grids G_k = S_1 x ... x (S_k minus E_k) x ... x S_n with the
        grid's psi, one per k with points off E_k.  A point lies off the
        punctured subgrid iff some coordinate lies off its E_k, so their
        union is the grid minus prod_k E_k."""
        return [MultisetGrid(self.ring, self.axes[:k] + (off,) + self.axes[k + 1:])
                for k, off in enumerate(self.off_axes) if off.support]

    def puncture_grid(self) -> MultisetGrid:
        """The punctured subgrid prod_k E_k with the grid's psi."""
        return MultisetGrid(self.ring, self.puncture_axes)


# -- level ideals ---------------------------------------------------------


# Exponent listings of at most this many vectors are cached, 64 listings at
# most, so the cache never holds more than 64 * 4 096 vectors.
MAX_CACHED_LISTING = 4096


def _exponent_vectors(t: int, n: int) -> tuple:
    """``compositions(t, n)`` as a tuple, counted on every call before any is
    listed: every member they label holds a term, so more than
    ``polynomials.MAX_BASIS_TERMS`` of them is ``ScaleExceeded``.  Listings
    of at most ``MAX_CACHED_LISTING`` vectors are shared between calls."""
    count, limit = comb(t + n - 1, n - 1), polynomials.MAX_BASIS_TERMS
    if count > limit:
        raise ScaleExceeded(f"{count} power products need over {limit} terms")
    if count > MAX_CACHED_LISTING:
        return tuple(compositions(t, n))
    return _small_listing(t, n)


@lru_cache(maxsize=64)
def _small_listing(t: int, n: int) -> tuple:
    return tuple(compositions(t, n))


def level_basis(grid: MultisetGrid, t: int) -> MonicFamily:
    """The generating family of the level-t ideal: all products
    ``prod g_k^(alpha_k)`` with ``sum(alpha) = t``, labelled by alpha.

    The family is a Groebner basis of the ideal it generates for any tuple
    of monic axis polynomials, so it is certified at construction and has
    ``C(n + t - 1, n - 1)`` members.
    """
    require_int(t, 0, "t", ValueError)
    alphas = _exponent_vectors(t, grid.nvars)
    built = _power_products(grid.ring, [axis.powers for axis in grid.axes], alphas)
    family = MonicFamily.build([g for g, _ in built], labels=alphas, certified=True)
    if family.witnesses != tuple(theta for _, theta in built):
        raise InternalInvariantError("level basis witness mismatch")
    return family


def _grid_condition(f: Poly, grid: MultisetGrid, checks) -> bool:
    """The one shift-then-scan loop, behind ``level_membership`` and
    ``vanishing.in_vanishing_ideal``.

    ``checks`` yields ``(point, accepts)`` pairs; f passes at a pair when
    ``accepts`` holds for every support vector of the Taylor shift of f to
    the point.  The ring and arity check runs before any pair is drawn.
    """
    f.require_on(grid.ring, grid.nvars)
    for point, accepts in checks:
        if not all(map(accepts, taylor_shift(f, point).terms)):
            return False
    return True


def _floor_sum_checks(grid: MultisetGrid, points, level: int):
    """The level-type checks: at each of ``points``, accept the vectors
    whose per-axis multiplicity floors sum to at least the level (a level
    below 1 accepts all, so the points are skipped).  Condition (D) is
    required as the first check is drawn."""
    grid.require_condition_d()
    for point in points if level >= 1 else ():
        psi = grid.psi_at(point)
        yield point, lambda a, psi=psi, level=level: sum(map(floordiv, a, psi)) >= level


def level_membership(f: Poly, grid: MultisetGrid, t: int) -> bool:
    """Membership in the level-t ideal via the grid vanishing conditions.

    Valid only under Condition (D) on every axis; raises Inapplicable
    otherwise.
    """
    require_int(t, 0, "t", ValueError)
    return _grid_condition(f, grid, _floor_sum_checks(grid, grid.grid_points(), t))


def _member_tail(ring: Ring, powers: list) -> list:
    """The terms of ``powers``' product but its lead (``_product_terms``
    without its last term), as ``(exponent, total degree, coefficient)``."""
    *tail, _lead = _product_terms(ring, [powers])[0].items()
    return [(beta, sum(beta), c) for beta, c in tail]


def level_normal_form(f: Poly, grid: MultisetGrid, t: int) -> Poly:
    """The unique reduced representative modulo the level-t ideal: the
    remainder of f on division by the level basis, whose members are built
    as the division needs them, each at most once per call.

    Each g_k is monic of degree d_k, so the member prod g_k^(a_k), |a| = t,
    has every other term below its lead x^(d*a) componentwise.  So x^gamma
    is divisible by a lead exactly when sum_k floor(gamma_k / d_k) >= t, and
    since the level basis is a Groebner basis, the remainder does not
    depend on which member divides a term: it is the one ``reduce`` returns
    on ``level_basis``.

    The terms are taken by total degree, greatest first.  A term whose
    floor sum is below t goes to the remainder.  Any other, c x^gamma, is
    cancelled by the member whose a_k are taken greedily, axis by axis, as
    large as floor(gamma_k / d_k) and the level left allow: c
    x^(gamma - d*a) times the member's other terms is subtracted.  Those lie
    below gamma componentwise, so in a lower total degree: terms of one
    degree never meet.  Level 0 and an axis of degree 0 (g_k = 1) make I_t
    the whole ring.  ``ScaleExceeded`` is raised before the work passes
    ``polynomials.MAX_BASIS_TERMS``, up front or as it goes.
    """
    require_int(t, 0, "t", ValueError)
    ring, n = grid.ring, grid.nvars
    f.require_on(ring, n)
    gs = [axis.terms for axis in grid.axes]
    degs = [g[0][-1] for g in gs]
    if t == 0 or not f.terms or 0 in degs:
        return _raw(ring, n, {})
    # Up front, each axis counts (top_k - t d_k + 1)^+ (|g_k| - 1), top_k the
    # greatest gamma_k in f: what a term with that gamma_k subtracts on its way
    # below t d_k if g_k has no gaps (terms differing only there meet on the
    # way; a term left to the remainder counts 0).  As it goes, a member counts
    # its powers' running counts, kept or not, and a step the terms it
    # subtracts.  On a 2 vCPU Xeon, x1^499000 at level 1 on {0, 1} over GF(5)
    # takes ~1.2 s, x1^300000 on {0, 1, 2} over ZZ ~7 s, and x1^(10^9) there
    # is refused at once.
    limit = polynomials.MAX_BASIS_TERMS
    refusal = f"the level-{t} normal form needs over {limit} terms"
    if sum(max(top - t * d + 1, 0) * (len(g[0]) - 1)
           for top, d, g in zip(map(max, zip(*f.terms)), degs, gs)) > limit:
        raise ScaleExceeded(refusal)
    tables = [axis.powers for axis in grid.axes]
    rows = [table.powers for table in tables]
    used = [0] * n  # per axis, the count of the highest power used so far
    work = 0
    tails = {}  # a -> the ``_member_tail`` of its member

    def tail_of(a: tuple) -> list:
        nonlocal work
        for k, e in enumerate(a):
            if e >= len(rows[k]):
                rows[k] = tables[k].upto(e, limit - work + used[k], rows[k])
                if rows[k] is None:
                    raise ScaleExceeded(refusal)
            work += max(rows[k][e][2] - used[k], 0)
            used[k] = max(rows[k][e][2], used[k])
        powers = [row[e] for row, e in zip(rows, a)]
        if work + prod(len(power[0]) for power in powers) > limit:
            raise ScaleExceeded(refusal)
        return _member_tail(ring, powers)

    zero, submul = ring.zero, ring.submul
    out = {}
    layers = {}  # total degree -> the terms of that degree not yet taken
    for gamma, c in f.terms.items():
        layers.setdefault(sum(gamma), {})[gamma] = c
    tops = [-s for s in layers]
    heapify(tops)
    while tops:
        for gamma, c in layers.pop(-heappop(tops)).items():
            a, left = [], t
            for e, d in zip(gamma, degs):
                a.append(min(e // d, left))
                left -= a[-1]
            if left:
                out[gamma] = c
                continue
            a = tuple(a)
            tail = tails.get(a)
            if tail is None:
                tail = tails[a] = tail_of(a)
            work += len(tail)
            if work > limit:
                raise ScaleExceeded(refusal)
            shift = [e - d * q for e, d, q in zip(gamma, degs, a)]
            low = sum(shift)
            for beta, s, b in tail:
                layer = layers.get(low + s)
                if layer is None:
                    layer = layers[low + s] = {}
                    heappush(tops, -low - s)
                key = tuple(map(add, shift, beta))
                new = submul(layer.get(key, zero), c, b)
                if new == zero:
                    layer.pop(key, None)
                else:
                    layer[key] = new
    return _raw(ring, n, out)


def in_level_ideal(f: Poly, grid: MultisetGrid, t: int) -> bool:
    """Membership in the level-t ideal by its normal form, with no grid scan.
    t, the operand and Condition (D) are checked in that order; under (D)
    the verdict is that of the scan ``level_membership``."""
    require_int(t, 0, "t", ValueError)
    f.require_on(grid.ring, grid.nvars)
    grid.require_condition_d()
    return level_normal_form(f, grid, t).is_zero()


def level_certificate(f: Poly, grid: MultisetGrid, t: int) -> ReductionOutcome:
    """Decompose a member over the level basis with support containment.

    Membership is decided by ``in_level_ideal``, with its checks, and a
    member is divided over ``level_basis``.  A nonzero remainder there means
    the normal form and the full division disagree, and is raised as
    ``NonzeroRemainder``.  The term limit ``polynomials.MAX_BASIS_TERMS``
    bounds the normal form's work and the basis's.  Also records that every
    maximal support point of f dominates the leading exponent of some basis
    member, the leading-cover consequence of membership.
    """
    if not in_level_ideal(f, grid, t):
        raise NotMember("not in the level ideal")
    out = decompose_member(f, level_basis(grid, t))
    return out.replace(kind="I_t", t=t, degree_report={"leading_cover": True})


# -- punctured ideals -------------------------------------------------------


def punctured_membership(f: Poly, pgrid: PuncturedGrid, t: int) -> bool:
    """Membership in the punctured ideal: level-t vanishing at every point
    of the grid off the punctured subgrid E = prod_k E_k.

    t, the operand and Condition (D) on the whole grid are checked in that
    order.  The grid minus E is the union of the pieces ``off_pieces``, so
    f vanishes to level t there exactly when it does on every piece.  A
    piece has the grid's psi and supports inside the grid's, so it inherits
    Condition (D); under (D), level-t vanishing on a grid is membership in
    its level ideal, that is, a level normal form of 0.  No grid point is
    visited.
    """
    require_int(t, 0, "t", ValueError)
    f.require_on(pgrid.ring, pgrid.nvars)
    pgrid.require_condition_d()
    return all(level_normal_form(f, piece, t).is_zero() for piece in pgrid.off_pieces())


class PuncturedReport(FieldsToJson, FrozenValue):
    """Normal form, extracted cofactor, and the degree consequence."""

    _fields = ("eta", "divisor", "cofactor", "nonvanishing_point", "degree_f",
               "degree_eta", "degree_bound", "bound_holds")


def punctured_analysis(f: Poly, pgrid: PuncturedGrid, t: int) -> PuncturedReport:
    """Full consequence chain for a member of the punctured intersection.

    Computes the level normal form eta of f, takes the cofactor of the
    off-puncture product in eta from ``decompose_member``, and, whenever f
    is nonzero somewhere on the full grid, asserts and reports the degree chain
    ``deg f >= deg eta >= (t-1)*max_m offsum_m + sum_k offsum_k``.

    The witness is the first grid point where f is nonzero.  A member at
    level t >= 1 vanishes off the puncture (the constant term of its shift
    has floor sum 0 < t), so only prod_k E_k is scanned, in the same order.
    """
    require_int(t, 1, "t", ValueError)
    if not punctured_membership(f, pgrid, t):
        raise NotMember("not in the punctured intersection")
    eta = level_normal_form(f, pgrid, t)

    divisor = pgrid.off_product()
    cofactor = decompose_member(eta, MonicFamily.build([divisor])).quotients[0]

    witness = next(pgrid.puncture_grid().nonzero_points(f), None)

    bound = holds = None
    if witness is not None:
        off_sums = pgrid.off_sums()
        bound = (t - 1) * max(off_sums) + sum(off_sums)
        holds = f.degree() >= eta.degree() >= bound
        if not holds:
            raise InternalInvariantError(f"degree chain violated: deg f = {f.degree()}, "
                                         f"deg eta = {eta.degree()}, bound = {bound}")
    return PuncturedReport(eta, divisor, cofactor, witness, f.degree(), eta.degree(), bound, holds)


# -- mixed ideals -------------------------------------------------------------


def mixed_basis(pgrid: PuncturedGrid, t: int) -> MonicFamily:
    """Two-layer generating family of the mixed ideal.

    Exponent vectors with total t contribute the plain power products, the
    members of ``level_basis(pgrid, t)``; vectors alpha with total t-1,
    listed first, contribute the power products times the full
    off-puncture product, ``prod_k off_k g_k^(alpha_k)``, built per axis
    like the plain ones.
    """
    require_int(t, 1, "t", ValueError)
    _exponent_vectors(t, pgrid.nvars)  # the upper count is refused before any build
    lower = _exponent_vectors(t - 1, pgrid.nvars)
    built = _power_products(pgrid.ring, pgrid._seeded_powers(), lower)
    upper = level_basis(pgrid, t)
    return MonicFamily.build([g for g, _ in built] + list(upper.members),
                             labels=lower + upper.labels)


def mixed_membership(f: Poly, pgrid: PuncturedGrid, t: int) -> bool:
    """Membership in the mixed ideal: full-strength vanishing conditions
    off the puncture, one level weaker on the puncture subgrid.

    t is checked, then f is tested as ``punctured_membership`` does, with
    its operand and Condition (D) checks.  The puncture subgrid
    ``puncture_grid`` inherits (D) like the pieces, so level t - 1 there is
    a level normal form of 0 on it.
    """
    require_int(t, 1, "t", ValueError)
    return (punctured_membership(f, pgrid, t)
            and level_normal_form(f, pgrid.puncture_grid(), t - 1).is_zero())


def mixed_certificate(f: Poly, pgrid: PuncturedGrid, t: int) -> ReductionOutcome:
    """Zero-remainder decomposition of a mixed-ideal member over the
    two-layer basis, with support containment."""
    if not mixed_membership(f, pgrid, t):
        raise NotMember("not in the mixed ideal")
    return decompose_member(f, mixed_basis(pgrid, t)).replace(kind="mixed", t=t)


def min_extra_degree(pgrid: PuncturedGrid, t: int):
    """Exact minimum degree of a mixed-ideal member outside the level-t
    ideal, with an attaining witness.

    The value is ``(t-1)*e + sum_k offsum_k`` where e is the smallest axis
    degree; the witness is the (t-1)-th power of a minimizing axis
    polynomial times the full off-puncture product.  Requires a nonempty
    puncture subgrid on every axis.
    """
    require_int(t, 1, "t", ValueError)
    if any(not E for E in pgrid.punctures):
        raise EmptyPuncture("every axis needs a nonempty puncture set")
    pgrid.require_condition_d()
    degs = [axis.degree for axis in pgrid.axes]
    e = min(degs)
    l = degs.index(e)
    value = (t - 1) * e + sum(pgrid.off_sums())

    alpha = tuple(t - 1 if k == l else 0 for k in range(pgrid.nvars))
    [(witness, _)] = _power_products(pgrid.ring, pgrid._seeded_powers(), [alpha])
    if witness.degree() != value:
        raise InternalInvariantError("witness degree disagrees with the formula")
    if not mixed_membership(witness, pgrid, t):
        raise InternalInvariantError("witness fails mixed membership")
    if level_normal_form(witness, pgrid, t).is_zero():
        raise InternalInvariantError("witness unexpectedly in the level ideal")
    return value, witness
