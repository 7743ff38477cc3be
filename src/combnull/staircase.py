"""Exponent-vector algebra on N^n and staircase counting.

Exponent vectors are plain tuples of naturals under the componentwise
partial order.  For a set A of vectors, ``in_downset`` tests membership in
the set of vectors dominated by some member, ``in_upset`` in the set of
vectors dominating some member, and ``complement`` enumerates the finite
set of vectors dominated by no member of A (when that set is finite).

The counting functions give closed forms for the staircase complements
attached to scaled simplices; enumeration oracles for them live in the
test suite.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, product
from math import comb, prod
from operator import sub
from typing import Iterable, Iterator, Sequence

from .errors import GammaExceedsAlpha, InfiniteComplement, ScaleExceeded

ExpVec = tuple  # tuple[int, ...]


def leq(a: ExpVec, b: ExpVec) -> bool:
    """Componentwise a <= b."""
    return all(x <= y for x, y in zip(a, b))


def grlex_key(a: ExpVec):
    """Sort key for the graded lexicographic order (degree, then lex)."""
    return (sum(a), a)


def maximal_elements(vectors: Iterable[ExpVec]) -> set:
    """The antichain of componentwise-maximal members."""
    vecs = set(vectors)
    return {b for b in vecs if not any(b != a and leq(b, a) for a in vecs)}


def in_upset(b: ExpVec, generators: Iterable[ExpVec]) -> bool:
    """True iff some generator is componentwise <= b."""
    return any(leq(c, b) for c in generators)


def in_downset(b: ExpVec, generators: Iterable[ExpVec]) -> bool:
    """True iff b is componentwise <= some generator."""
    return any(leq(b, a) for a in generators)


def has_finite_complement(generators: Iterable[ExpVec], nvars: int) -> bool:
    """Finiteness criterion for the complement of an upset: every axis k
    owns a generator supported on axis k alone (see ``_axis_bounds``)."""
    try:
        _axis_bounds(list(generators), nvars)
    except InfiniteComplement:
        return False
    return True


def _axis_bounds(gens: Sequence[ExpVec], nvars: int) -> list:
    """Box bounds b_k = min over generators supported on axis k alone.

    Every vector outside the upset has k-th entry < b_k, so scanning the
    box [0, b_1) x ... x [0, b_n) is a complete enumeration.  The
    complement of the upset is finite exactly when every axis has such a
    generator; otherwise this raises InfiniteComplement.
    """
    bounds = []
    for k in range(nvars):
        axis_vals = [
            g[k]
            for g in gens
            if all(g[l] == 0 for l in range(nvars) if l != k)
        ]
        if not axis_vals:
            raise InfiniteComplement(
                f"axis {k + 1} has no generator supported on it alone"
            )
        bounds.append(min(axis_vals))
    return bounds


# Box points one complement scan may visit.  On a 2 vCPU Xeon the box of
# {(1000, 0), (0, 1000)} (10^6 points) takes ~4 s and ~90 MB; no test, demo
# or benchmark input scans more than 486.
MAX_COMPLEMENT_BOX = 10**6


def complement(generators: Iterable[ExpVec], nvars: int) -> set:
    """The finite set N^n minus the upset of the generators.

    Raises InfiniteComplement when the finiteness criterion fails, and
    ScaleExceeded when the box to scan holds more than
    ``MAX_COMPLEMENT_BOX`` points, counted before any is listed.
    """
    gens = list(set(generators))
    bounds = _axis_bounds(gens, nvars)
    count = prod(bounds)
    if count > MAX_COMPLEMENT_BOX:
        raise ScaleExceeded(f"{count} box points exceed the limit of {MAX_COMPLEMENT_BOX}")
    return {
        beta
        for beta in product(*(range(b) for b in bounds))
        if not in_upset(beta, gens)
    }


def compositions(total: int, parts: int) -> Iterator[ExpVec]:
    """All vectors in N^parts with coordinate sum equal to total, in
    lexicographic order, without recursion: stars and bars, each vector
    being the gaps between cuts 0 <= s_1 <= ... <= s_(parts-1) <= total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(sub, cuts + (total,), (0,) + cuts))


def require_int(value, least: int, what: str, error) -> int:
    """The one integer rule: ``value`` when it is an ``int`` (not a
    ``bool``) >= least, else ``error`` naming ``what``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise error(f"{what} must be an integer >= {least}, got {value!r}")
    return value


def staircase_count(alpha: ExpVec, t: int) -> int:
    """Size of the staircase complement of the scaled level-t simplex.

    For B = {(alpha_1 theta_1, ..., alpha_n theta_n) : sum(theta) = t} the
    complement of the upset of B has exactly
    ``prod(alpha) * C(n + t - 1, n)`` points; when every alpha_i is
    positive these are the beta with ``sum(floor(beta_i / alpha_i)) <= t - 1``.
    """
    require_int(t, 0, "t", ValueError)
    alpha = tuple(require_int(a, 0, "alpha entry", ValueError) for a in alpha)
    n = len(alpha)
    return prod(alpha) * comb(n + t - 1, n)


def punctured_staircase_count(alpha: ExpVec, gamma: ExpVec, t: int) -> int:
    """Complement size once the level t-1 shifted simplex is also removed.

    Counts N^n minus the upset of B union C for
    B = {alpha*theta : sum(theta)=t} and
    C = {alpha*theta + alpha - gamma : sum(theta)=t-1}, which equals
    ``prod(alpha)*C(n+t-1, n) - prod(gamma)*C(n+t-2, n-1)``.
    """
    require_int(t, 1, "t", ValueError)
    alpha = tuple(require_int(a, 0, "alpha entry", ValueError) for a in alpha)
    gamma = tuple(require_int(g, 0, "gamma entry", ValueError) for g in gamma)
    if len(alpha) != len(gamma):
        raise GammaExceedsAlpha("alpha and gamma must share a length")
    if not leq(gamma, alpha):
        raise GammaExceedsAlpha(f"{gamma} is not dominated by {alpha}")
    n = len(alpha)
    return prod(alpha) * comb(n + t - 1, n) - prod(gamma) * comb(n + t - 2, n - 1)


def parse_expvec(text: str) -> ExpVec:
    """Parse ``(a1,a2,...,an)``; a trailing comma is tolerated."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad exponent vector {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        raise ValueError("empty exponent vector")
    if inner.endswith(","):
        inner = inner[:-1]
    try:
        vec = tuple(int(part.strip()) for part in inner.split(","))
    except ValueError:
        raise ValueError(f"bad exponent vector {text!r}") from None
    if any(x < 0 for x in vec):
        raise ValueError(f"negative entry in {text!r}")
    return vec


def format_expvec(vec: ExpVec) -> str:
    if len(vec) == 1:
        return f"({vec[0]},)"
    return "(" + ",".join(str(x) for x in vec) + ")"
