from itertools import product
from math import prod

import pytest

from combnull import (
    GF,
    ZZ,
    Inapplicable,
    Poly,
    SupportExceedsBeta,
    ZeroPolynomial,
    Zmod,
    nonzero_bound,
)
from conftest import P, downset


def test_single_axis_example():
    report = nonzero_bound(P("x1^2 - x1"), [[0, 1, 2]], (2,))
    assert report.mu == (1,)
    assert report.bound == 1
    assert report.actual == 1


def test_two_axis_example():
    f = P("x1^2 - x1", nvars=2)
    report = nonzero_bound(f, [[0, 1, 2], [0, 1, 2]], (2, 0))
    assert report.mu == (1, 3)
    assert report.bound == 3
    assert report.actual == 3


def test_constant_polynomial():
    f = P("5", nvars=2)
    report = nonzero_bound(f, [[0, 1], [0, 1, 2]], (0, 0))
    assert report.mu == (2, 3)
    assert report.bound == 6 == report.actual


def test_guards():
    with pytest.raises(ZeroPolynomial):
        nonzero_bound(Poly.zero(ZZ, 1), [[0, 1]], (1,))
    with pytest.raises(SupportExceedsBeta):
        nonzero_bound(P("x1^2"), [[0, 1, 2]], (1,))
    with pytest.raises(ValueError):
        nonzero_bound(P("x1"), [[0, 1]], (2,))
    ring = Zmod(6)
    with pytest.raises(Inapplicable):
        nonzero_bound(P("x1", ring=ring), [[0, 3]], (1,))


def test_exhaustive_sweep_gf2_with_sharpness():
    ring = GF(2)
    S = [[0, 1], [0, 1]]
    for beta in product((0, 1), repeat=2):
        box = sorted(downset({beta}))
        equality_seen = False
        for coeffs in product((0, 1), repeat=len(box)):
            terms = {alpha: c for alpha, c in zip(box, coeffs) if c}
            if not terms:
                continue
            f = Poly(ring, 2, terms)
            report = nonzero_bound(f, S, beta)
            assert report.bound <= report.actual
            if report.bound == report.actual:
                equality_seen = True
        assert equality_seen, beta


def test_mu_is_feasible_and_minimal(rng):
    for _ in range(30):
        sizes = [rng.randint(1, 3) for _ in range(2)]
        S = [list(range(s)) for s in sizes]
        beta = tuple(rng.randint(0, s - 1) for s in sizes)
        box = sorted(downset({beta}))
        terms = {}
        for alpha in box:
            if rng.random() < 0.5:
                terms[alpha] = rng.randint(1, 3)
        if not terms:
            continue
        f = Poly(ZZ, 2, terms)
        report = nonzero_bound(f, S, beta)
        mu = report.mu
        assert all(s - b <= m <= s for m, s, b in zip(mu, sizes, beta))
        assert sum(mu) == sum(sizes) - f.degree()
        feasible = [
            m
            for m in product(*(range(s - b, s + 1) for s, b in zip(sizes, beta)))
            if sum(m) == sum(sizes) - f.degree()
        ]
        assert report.bound == min(prod(m) for m in feasible)
