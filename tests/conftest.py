import random
from itertools import product

import pytest

from combnull import (
    GF,
    QQ,
    ZZ,
    ArityMismatch,
    MonicFamily,
    NotMonic,
    Poly,
    Zmod,
    level_basis,
    parse_poly,
    reduce,
    root_product,
)
from combnull import multiset_ideals
from combnull.polynomials import PowerTable, _power_products, random_monic, random_poly
from combnull.staircase import maximal_elements, require_int

# The rings property tests draw from: a domain of each kind and ZZ/6,
# where nonzero elements multiply to zero.
RINGS = (ZZ, QQ, GF(5), Zmod(6))


@pytest.fixture
def rng():
    return random.Random(20240131)


def P(text, ring=ZZ, nvars=None):
    """Parse shorthand; infers arity from the highest variable index."""
    if nvars is None:
        import re

        nvars = max((int(m.group(1)) for m in re.finditer(r"x(\d+)", text)), default=1)
    return parse_poly(text, ring, nvars)


def level_normal_form_oracle(f, grid, t):
    """The level-t normal form by ``reduce`` over the whole level basis, the
    reference for ``level_normal_form``, which builds only the members its
    division needs and chooses them in its own way."""
    return reduce(f, level_basis(grid, t)).remainder


def punctured_scan(f, pgrid, t):
    """Punctured membership by the grid scan: the floor-sum rule at level t
    at every point off the puncture, the reference for the pieces in
    ``punctured_membership``.  t, the operand and Condition (D) are checked
    in that order."""
    require_int(t, 0, "t", ValueError)
    checks = multiset_ideals._floor_sum_checks(pgrid, pgrid.off_puncture_points(), t)
    return multiset_ideals._grid_condition(f, pgrid, checks)


def mixed_scan(f, pgrid, t):
    """Mixed membership by the grid scan: ``punctured_scan`` at level t and
    the floor-sum rule at level t - 1 at every point of prod_k E_k, the
    reference for ``mixed_membership``."""
    require_int(t, 1, "t", ValueError)
    on_puncture = multiset_ideals._floor_sum_checks(pgrid, product(*pgrid.punctures), t - 1)
    return punctured_scan(f, pgrid, t) and multiset_ideals._grid_condition(f, pgrid, on_puncture)


def is_axis_poly(f, axis):
    """True iff every term of f is supported on the given axis only."""
    # Exponents are nonnegative: the other entries are all zero iff they
    # add nothing to the sum.
    return all(sum(alpha) == alpha[axis] for alpha in f.terms)


def monic_power_product(axis_polys, alphas):
    """``prod g_k^(alpha_k)`` for each alpha, over monic single-axis
    polynomials: the builder oracle for the library's per-axis power
    products (``polynomials._power_products``), here on new
    ``PowerTable``s of sparse univariate term lists.

    ``axis_polys[k]`` must be a monic polynomial in x_(k+1) alone; all are
    checked before any product is built, so a bad family raises even when
    ``alphas`` is empty.  Returns one pair ``(product, theta)`` per alpha,
    in order, where theta is the greatest support point
    ``(deg(g_1) alpha_1, ..., deg(g_n) alpha_n)``, under the library's term
    limit ``MAX_BASIS_TERMS``.
    """
    if not axis_polys:
        raise ValueError("need at least one axis polynomial")
    n = axis_polys[0].nvars
    if len(axis_polys) != n:
        raise ArityMismatch("one axis polynomial per variable is required")
    ring = axis_polys[0].ring
    factors = []
    for k, g in enumerate(axis_polys):
        g.require_on(ring, n)
        if not is_axis_poly(g, k):
            raise ValueError(f"member {k + 1} involves other variables")
        if g.monic_witness() is None:
            raise NotMonic(f"axis polynomial {k + 1} is not monic")
        axis_terms = sorted((alpha[k], c) for alpha, c in g.terms.items())
        factors.append(tuple(map(list, zip(*axis_terms))))
    alphas = [tuple(require_int(e, 0, "exponent", ValueError) for e in alpha) for alpha in alphas]
    for alpha in alphas:
        if len(alpha) != n:
            raise ArityMismatch(f"exponent {alpha} for {n} axis polynomials")
    return _power_products(ring, [PowerTable(ring, g) for g in factors], alphas)


def random_family(rng, ring, nvars, max_members=3):
    return MonicFamily.build(
        [random_monic(rng, ring, nvars) for _ in range(rng.randint(1, max_members))]
    )


def variable(ring, nvars, axis):
    """The variable x_{axis+1} (axes are 0-based)."""
    exp = tuple(1 if k == axis else 0 for k in range(nvars))
    return Poly(ring, nvars, {exp: ring.one})


def scale(f, c):
    """f with every coefficient multiplied by the ring element c."""
    ring = f.ring
    return Poly(ring, f.nvars, {a: ring.mul(ca, ring.canon(c)) for a, ca in f.terms.items()})


def elements(ring):
    """Every element of a finite ring."""
    assert ring.modulus, ring
    return range(ring.modulus)


def downset(vectors):
    """Every vector dominated by some member, listed explicitly."""
    out = set()
    for a in maximal_elements(vectors):
        out.update(product(*(range(x + 1) for x in a)))
    return out


def meet(a, b):
    """Componentwise minimum of two exponent vectors."""
    return tuple(min(x, y) for x, y in zip(a, b))


def vec_sub(a, b):
    """Componentwise difference; the caller guarantees b <= a."""
    return tuple(x - y for x, y in zip(a, b))


def off_poly(pgrid, k):
    """g_k / h_k, realized directly as the off-puncture root product."""
    axis = pgrid.axes[k]
    rest = [u for u in axis.support if u not in set(pgrid.punctures[k])]
    return root_product(pgrid.ring, pgrid.nvars, k, rest, axis.psi)


def partial_evaluate(f, assignments):
    """Substitute values on a subset of axes, keeping the arity."""
    ring = f.ring
    out: dict = {}
    for alpha, c in f.terms.items():
        key = list(alpha)
        for axis, v in assignments.items():
            c = ring.mul(c, ring.pow(ring.canon(v), alpha[axis]))
            key[axis] = 0
        key = tuple(key)
        out[key] = ring.add(out.get(key, ring.zero), c)
    return Poly(ring, f.nvars, out)

