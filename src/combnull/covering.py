"""Hyperplane-covering audits and affine blocking-set searches.

``covering_audit`` checks the two hypotheses of the covering bound on a
concrete instance (every off-puncture grid point lies on enough plane zero
sets, and at some grid point the plane values multiply to nonzero) in one
walk that evaluates each plane once per point, then asserts the resulting
degree inequality; the product degree is read off the leading coefficients
unless one is a zero divisor (ZZ/m), and only then is the product expanded,
its term products counted against the term limit as it goes.
``blocking_audit`` and the exhaustive search certify minimal affine blocking
multisets over small prime fields, where ``(n + t - 1)(q - 1) + 1`` is sharp.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Mapping, Sequence

from . import polynomials
from .errors import InternalInvariantError, NonPositiveMultiplicity, ParseError, ScaleExceeded
from .multiset_ideals import PuncturedGrid
from .polynomials import Poly, parse_poly
from .rings import FieldsToJson, FrozenValue, GF
from .serialization import _json_list, _json_object, grid_from_json, value_to_json
from .staircase import grlex_key, require_int


def point_cover_threshold(psi_at_point: Sequence[int], t: int) -> int:
    """Required number of covering planes at a grid point.

    One more than the largest coordinate sum among vectors whose per-axis
    multiplicity floors sum to at most t-1, which closes to
    ``sum(psi_i - 1) + (t - 1) * max(psi_i) + 1``.
    """
    require_int(t, 1, "t", ValueError)
    psi = tuple(require_int(m, 1, "multiplicity", NonPositiveMultiplicity) for m in psi_at_point)
    return sum(m - 1 for m in psi) + (t - 1) * max(psi) + 1


class CoverInstance(FrozenValue):
    """A punctured grid, a tuple of (plane polynomial, stated degree)
    pairs, and the multiplicity level t."""

    _fields = ("pgrid", "planes", "t")

    @classmethod
    def build(cls, pgrid: PuncturedGrid, planes: Sequence, t: int) -> "CoverInstance":
        require_int(t, 1, "t", ValueError)
        checked = []
        for rho, e in planes:
            rho.require_on(pgrid.ring, pgrid.nvars)
            if rho.is_zero():
                raise ValueError("a plane polynomial must be nonzero")
            if rho.degree() != e:
                raise ValueError(
                    f"declared degree {e} but deg = {rho.degree()} for {rho}"
                )
            checked.append((rho, e))
        return cls(pgrid, tuple(checked), t)


def instance_from_json(doc: Mapping) -> CoverInstance:
    """``{pgrid, planes: [{poly, degree?}], t}``; a degree, when given, is a
    JSON integer and must be the plane's."""
    _json_object(doc, "cover instance", ("pgrid", "planes", "t"))
    pgrid = grid_from_json(doc["pgrid"], kind=PuncturedGrid, what="cover instance pgrid")
    planes = []
    for k, plane in enumerate(_json_list(doc["planes"], object, "planes must be a JSON list"), 1):
        _json_object(plane, f"plane {k}", ("poly",), ("degree",))
        rho = parse_poly(plane["poly"], pgrid.ring, pgrid.nvars)
        degree = rho.degree()
        if "degree" in plane:
            degree = require_int(plane["degree"], 0, "degree", ParseError)
        planes.append((rho, degree))
    return CoverInstance.build(pgrid, planes, doc["t"])


class CoverReport(FrozenValue):
    """Both hypotheses, the degrees, the per-axis ``bounds`` when they hold, and the verdict."""

    _fields = ("hypothesis_coverage", "uncovered_point", "hypothesis_escape", "escape_point",
               "sum_degrees", "product_degree", "bounds", "verdict")

    def to_json_dict(self) -> dict:
        return {
            "hypotheses": {
                "coverage": self.hypothesis_coverage,
                "uncovered_point": value_to_json(self.uncovered_point),
                "escape": self.hypothesis_escape,
                "escape_point": value_to_json(self.escape_point),
            },
            "lhs": {
                "sum_degrees": self.sum_degrees,
                "product_degree": self.product_degree,
            },
            "bound": max(self.bounds) if self.bounds else None,
            "bounds_per_axis": value_to_json(self.bounds),
            "verdict": self.verdict,
        }


def covering_audit(inst: CoverInstance) -> CoverReport:
    """Audit both hypotheses, then assert the degree inequality.

    One walk evaluates each plane once per grid point.  Off the puncture the
    number of zero values tests coverage; the ring product of the values
    tests escape, since evaluation is a ring homomorphism (in ZZ/m too).
    Each test keeps its first point in grid order.  Nonzero-divisor leading
    coefficients multiply to a nonzero leading term, so the product degree
    is the sum of the plane degrees; only when some grlex-leading
    coefficient is a zero divisor (ZZ/m, m composite) is the product built,
    one plane at a time: before each product its |partial| |rho_i| term
    products join a running count, and past the term limit
    ``polynomials.MAX_BASIS_TERMS`` the audit raises ``ScaleExceeded``.

    If either hypothesis fails the report says so and makes no claim.
    When both hold, a violated inequality would contradict the theory and
    raises InternalInvariantError instead of being reported.
    """
    pgrid = inst.pgrid
    pgrid.require_condition_d()
    ring = pgrid.ring
    rhos = [rho for rho, _ in inst.planes]
    uncovered_point = escape_point = None
    for point in pgrid.grid_points():
        values = [rho.evaluate(point) for rho in rhos]
        if (uncovered_point is None and any(v not in E for v, E in zip(point, pgrid.punctures))
                and values.count(ring.zero) < point_cover_threshold(pgrid.psi_at(point), inst.t)):
            uncovered_point = point
        if escape_point is None and reduce(ring.mul, values, ring.one) != ring.zero:
            escape_point = point
        if uncovered_point is not None and escape_point is not None:
            break

    sum_degrees = sum(e for _, e in inst.planes)
    holds = uncovered_point is None and escape_point is not None
    prod_degree = bounds = None
    if holds:
        leads = (rho.terms[max(rho.terms, key=grlex_key)] for rho in rhos)
        if any(map(ring.is_zero_divisor, leads)):
            partial, work, limit = Poly.one(ring, pgrid.nvars), 0, polynomials.MAX_BASIS_TERMS
            for rho in rhos:
                work += len(partial.terms) * len(rho.terms)
                if work > limit:
                    raise ScaleExceeded(
                        f"the product of {len(rhos)} planes needs over {limit} term products")
                partial = partial * rho
            prod_degree = partial.degree()
        else:
            prod_degree = sum(rho.degree() for rho in rhos)
        off_sums = pgrid.off_sums()
        bounds = tuple((inst.t - 1) * off + sum(off_sums) for off in off_sums)
        for m, rhs in enumerate(bounds):
            if not (sum_degrees >= prod_degree >= rhs):
                raise InternalInvariantError(f"degree inequality failed on axis {m + 1}: "
                                             f"{sum_degrees} >= {prod_degree} >= {rhs}")
    return CoverReport(uncovered_point is None, uncovered_point, escape_point is not None,
                       escape_point, sum_degrees, prod_degree, bounds,
                       "bound_holds" if holds else "hypotheses_unmet")


# -- affine blocking sets -----------------------------------------------------


def _require_blocking(q: int, n: int, t: int) -> None:
    """Check a t-fold blocking question in GF(q)^n, once per public call and
    never per search candidate: ``GF(q)`` refuses a q that is not prime,
    then n and t must be >= 1."""
    GF(q)
    require_int(n, 1, "n", ValueError)
    require_int(t, 1, "t", ValueError)


def affine_blocking_bound(q: int, n: int, t: int) -> int:
    """Lower bound ``(n + t - 1)(q - 1) + 1`` for t-fold affine blocking
    multisets in GF(q)^n; only prime q is supported."""
    _require_blocking(q, n, t)
    return (n + t - 1) * (q - 1) + 1


def affine_hyperplanes(q: int, n: int):
    """All affine hyperplanes of GF(q)^n as normalized pairs (eta, c).

    Normal vectors are nonzero with first nonzero entry one, so every
    hyperplane appears exactly once, in the lexicographic order of eta.
    Callers have checked that q is prime.
    """
    for i in reversed(range(n)):  # the position of the first nonzero entry
        for rest in product(range(q), repeat=n - 1 - i):
            eta = (0,) * i + (1,) + rest
            for c in range(q):
                yield eta, c


def _on_hyperplane(point, eta, c, q: int) -> bool:
    return sum(a * b for a, b in zip(eta, point)) % q == c


# Candidate-times-hyperplane tests a search may make: (3, 2, 3) needs under
# 10^6, while (5, 2, 1) would need about 5 * 10^7 and run for minutes.  An
# audit's tests are point-times-hyperplane: 2 000 points in GF(31)^2 take
# 1.98 * 10^6 of them and 1.4-2.3 s on a 2 vCPU Xeon.
MAX_SEARCH_TESTS = 2_000_000


def _check_tests(q: int, n: int, per_hyperplane: int, what: str, exact: bool = True) -> None:
    """Refuse, before any test, ``per_hyperplane`` tests against each affine
    hyperplane of GF(q)^n when they total over MAX_SEARCH_TESTS; a count
    that is not ``exact`` is a lower bound and printed as one.  A count of
    more than 20 digits is not printed: past 4 300, str() of it raises."""
    tests = (q ** n - 1) // (q - 1) * q * per_hyperplane
    if tests > MAX_SEARCH_TESTS:
        count = "over 10^20" if tests >= 10**20 else f"{'' if exact else 'over '}{tests}"
        raise ScaleExceeded(
            f"{what} in GF({q})^{n} needs {count} hyperplane tests (limit {MAX_SEARCH_TESTS})"
        )


def _check_search_work(q: int, n: int, t: int, sizes) -> None:
    """Refuse, before searching, candidates of these sizes whose tests
    against every hyperplane would exceed MAX_SEARCH_TESTS.  C(N, k) > C(N, 2)
    for 2 < k < N - 2, so a large N is counted as C(N, 2), and the count stops
    once past the bound: either way it is a lower bound.  A search lists the
    whole space even with no candidate, so it is charged one at least."""
    points = q ** n
    allowed = MAX_SEARCH_TESTS // ((points - 1) // (q - 1) * q)
    candidates, exact = 0, True
    for k in sizes:
        if candidates > allowed:
            exact = False
            break
        N = points if t == 1 else points + k - 1  # multisets of size k are C(points + k - 1, k)
        small = min(k, N - k) <= 2 or comb(N, 2) <= allowed
        candidates += comb(N, k) if small else comb(N, 2)
        exact = exact and small
    _check_tests(q, n, max(candidates, 1), "blocking search", exact)


def blocks_all_hyperplanes(q: int, n: int, t: int, points: Sequence) -> tuple:
    """Whether the point multiset meets every hyperplane at least t times;
    returns (blocked, first unblocked hyperplane or None)."""
    for p in points:
        if len(p) != n:
            raise ValueError(f"point {p} does not live in a {n}-dimensional space")
    pts = [tuple(v % q for v in p) for p in points]
    for eta, c in affine_hyperplanes(q, n):
        hits = sum(1 for p in pts if _on_hyperplane(p, eta, c, q))
        if hits < t:
            return False, (eta, c)
    return True, None


class BlockingReport(FieldsToJson, FrozenValue):
    _fields = ("blocked", "unblocked_hyperplane", "size", "bound")


def blocking_audit(q: int, n: int, t: int, points: Sequence) -> BlockingReport:
    """Verify a concrete multiset against every affine hyperplane and
    compare its size with the bound; each point on each hyperplane is one
    test, counted first against MAX_SEARCH_TESTS."""
    bound = affine_blocking_bound(q, n, t)
    _check_tests(q, n, len(points), "blocking audit")
    # a type test per coordinate: GF(q).canon on each cost ~18% of an audit (2 vCPU Xeon)
    if any(type(v) is not int for p in points for v in p):
        raise ValueError("every point coordinate must be an int (not a bool)")
    blocked, witness = blocks_all_hyperplanes(q, n, t, points)
    return BlockingReport(blocked, witness, len(points), bound)


def exists_blocking_of_size(q: int, n: int, t: int, size: int) -> tuple:
    """Exhaustively search multisets of the given size; returns
    (found, example or None).  Plain subsets suffice when t = 1."""
    _require_blocking(q, n, t)
    require_int(size, 0, "size", ValueError)
    if size == 0:  # some hyperplane exists (n, t >= 1), met 0 < t times
        return False, None
    _check_search_work(q, n, t, [size])
    space = list(product(range(q), repeat=n))
    chooser = combinations if t == 1 else combinations_with_replacement
    for candidate in chooser(space, size):
        blocked, _ = blocks_all_hyperplanes(q, n, t, candidate)
        if blocked:
            return True, candidate
    return False, None


def minimal_blocking_size(q: int, n: int, t: int) -> tuple:
    """Smallest size of a t-fold blocking multiset, by ascending search;
    every size below ``affine_blocking_bound`` is searched in full."""
    bound = affine_blocking_bound(q, n, t)
    _check_search_work(q, n, t, range(1, bound))
    size = 1
    while True:
        found, example = exists_blocking_of_size(q, n, t, size)
        if found:
            return size, example
        size += 1
        if size > t * q * n + q * n:  # safety stop well above the bound
            raise InternalInvariantError("blocking search exceeded sane range")
