"""Lower bound on the number of grid points where a polynomial is nonzero.

Given axis sets S_k satisfying Condition (D), a nonzero polynomial whose
support sits under a cap vector beta with ``beta_k <= |S_k| - 1`` must be
nonzero on at least ``prod mu_k`` grid points, for some mu with
``|S_k| - beta_k <= mu_k <= |S_k|`` and ``sum(mu) = sum|S_k| - deg f``.
The report returns the feasible mu minimizing the product (ties broken by
lexicographic order), which is the strongest certified bound, alongside
the brute-force count.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Sequence

from .errors import CombnullError, InternalInvariantError, ZeroPolynomial
from .multiset_ideals import MultisetGrid
from .polynomials import Poly
from .rings import Element, FieldsToJson, FrozenValue
from .staircase import leq, require_int


class SupportExceedsBeta(CombnullError):
    """Some support exponent escapes the declared cap vector."""


class NonzeroBoundReport(FieldsToJson, FrozenValue):
    _fields = ("mu", "bound", "actual")


def nonzero_bound(f: Poly, supports: Sequence[Sequence[Element]], beta) -> NonzeroBoundReport:
    """Certified bound and exact count of nonzero grid values of f."""
    grid = MultisetGrid.build(f.ring, supports)
    # checks f and counts the grid now: the mu box searched below lies inside it
    nonzero = grid.nonzero_points(f)
    grid.require_condition_d()
    if f.is_zero():
        raise ZeroPolynomial("the bound concerns nonzero polynomials")
    beta = tuple(require_int(b, 0, "beta entry", ValueError) for b in beta)
    if len(beta) != f.nvars:
        raise ValueError(f"beta of length {len(beta)} in {f.nvars} variables")
    sizes = [len(axis.support) for axis in grid.axes]
    if any(b > s - 1 for b, s in zip(beta, sizes)):
        raise ValueError(f"beta {beta} exceeds the per-axis caps |S_k| - 1")
    for alpha in f.terms:
        if not leq(alpha, beta):
            raise SupportExceedsBeta(f"support point {alpha} escapes beta {beta}")

    target = sum(sizes) - int(f.degree())
    boxes = product(*(range(s - b, s + 1) for s, b in zip(sizes, beta)))
    best = min(((prod(mu), mu) for mu in boxes if sum(mu) == target), default=None)
    if best is None:
        raise InternalInvariantError("no feasible mu despite valid inputs")
    bound, mu = best

    actual = sum(1 for _ in nonzero)
    if bound > actual:
        raise InternalInvariantError(
            f"bound {bound} exceeds the true count {actual}"
        )
    return NonzeroBoundReport(mu, bound, actual)
