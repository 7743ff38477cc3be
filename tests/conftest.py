import random
from itertools import product

import pytest

from combnull import (
    GF,
    QQ,
    ZZ,
    MonicFamily,
    Poly,
    Zmod,
    level_basis,
    parse_poly,
    reduce,
    root_product,
)
from combnull.polynomials import random_monic, random_poly
from combnull.staircase import maximal_elements

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
    """The level-t normal form by division over the level basis, the
    reference for the digit computation in ``level_normal_form``."""
    return reduce(f, level_basis(grid, t)).remainder


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
    assert ring.is_finite, ring
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

