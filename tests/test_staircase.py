from itertools import product
from math import comb

import pytest

from combnull import (
    GammaExceedsAlpha,
    InfiniteComplement,
    complement,
    compositions,
    has_finite_complement,
    in_upset,
    leq,
    maximal_elements,
    punctured_staircase_count,
    staircase_count,
)
from combnull import ScaleExceeded, staircase
from combnull.staircase import format_expvec, parse_expvec
from conftest import downset, meet


def brute_complement(gens, nvars, halo=1):
    """Independent oracle: rejection scan over a box padded past every
    generator coordinate."""
    gens = list(gens)
    if not gens:
        return None  # complement is all of N^n
    top = [max(g[k] for g in gens) + halo for k in range(nvars)]
    pts = {
        beta
        for beta in product(*(range(b) for b in top))
        if not any(all(c <= x for c, x in zip(g, beta)) for g in gens)
    }
    # anything outside the box on some axis must be in the upset for the
    # complement to be finite; verified by the caller via the criterion
    return pts


def test_leq():
    assert leq((1, 2), (2, 2))
    assert not leq((1, 2), (2, 1))
    assert leq((3, 1), (3, 1))


def test_meet():
    assert meet((2, 0), (0, 2)) == (0, 0)
    assert meet((3, 1), (1, 3)) == (1, 1)
    assert meet((2, 5), (2, 5)) == (2, 5)


def test_maximal_elements():
    assert maximal_elements({(1, 0), (0, 1), (1, 1)}) == {(1, 1)}
    assert maximal_elements(set()) == set()
    antichain = {(2, 0), (0, 2)}
    assert maximal_elements(antichain) == antichain


def test_in_upset():
    assert in_upset((3, 3), {(2, 0)})
    assert not in_upset((1, 1), {(2, 0), (0, 2)})
    assert not in_upset((5, 5), set())


def test_downset():
    assert downset({(1, 1)}) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert downset(set()) == set()
    assert downset({(2, 0)}) == {(0, 0), (1, 0), (2, 0)}


def test_downset_of_sum_is_sum_of_downsets(rng):
    for _ in range(30):
        n = rng.randint(1, 3)
        A = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))}
        B = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))}
        sum_set = {tuple(x + y for x, y in zip(a, b)) for a in A for b in B}
        lhs = downset(sum_set)
        rhs = {
            tuple(x + y for x, y in zip(a, b)) for a in downset(A) for b in downset(B)
        }
        assert lhs == rhs


def test_finiteness_criterion():
    assert has_finite_complement({(2, 0), (0, 3)}, 2)
    assert not has_finite_complement({(1, 1)}, 2)
    assert has_finite_complement({(0,)}, 1)
    assert not has_finite_complement(set(), 1)


def test_complement_examples():
    assert complement({(2, 0), (0, 2)}, 2) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert complement({(0, 0)}, 2) == set()
    assert complement({(1, 0), (0, 1)}, 2) == {(0, 0)}
    with pytest.raises(InfiniteComplement):
        complement({(1, 1)}, 2)


def test_complement_counts_its_box_up_front(monkeypatch):
    # 10^4 * e_k on 3 axes would list 10^12 points
    wide = {(10**4, 0, 0), (0, 10**4, 0), (0, 0, 10**4)}
    with pytest.raises(ScaleExceeded, match="1000000000000 box points exceed the limit of 1000000"):
        complement(wide, 3)
    # the box is counted, not the complement: {(3, 0), (0, 2), (1, 1)} boxes 6
    monkeypatch.setattr(staircase, "MAX_GRID_POINTS", 6)
    assert complement({(3, 0), (0, 2), (1, 1)}, 2) == {(0, 0), (1, 0), (2, 0), (0, 1)}
    monkeypatch.setattr(staircase, "MAX_GRID_POINTS", 5)
    with pytest.raises(ScaleExceeded, match="6 box points"):
        complement({(3, 0), (0, 2), (1, 1)}, 2)


def test_complement_against_brute_scan(rng):
    for _ in range(60):
        n = rng.randint(1, 3)
        gens = set()
        for k in range(n):  # force finiteness with one axis generator each
            g = [0] * n
            g[k] = rng.randint(1, 3)
            gens.add(tuple(g))
        for _ in range(rng.randint(0, 3)):
            gens.add(tuple(rng.randint(0, 3) for _ in range(n)))
        assert has_finite_complement(gens, n)
        got = complement(gens, n)
        assert got == brute_complement(gens, n)
        assert all(not in_upset(b, gens) for b in got)


def test_compositions_count_and_order():
    for n in range(1, 4):
        for t in range(5):
            all_vecs = list(compositions(t, n))
            assert len(all_vecs) == comb(n + t - 1, n - 1)
            assert all(sum(v) == t for v in all_vecs)
            assert all_vecs == sorted(all_vecs)


def scaled_simplex(alpha, t):
    return {tuple(a * th for a, th in zip(alpha, theta)) for theta in compositions(t, len(alpha))}


def test_staircase_count_frozen_values():
    # enumeration over floor sums fixes 18 for alpha=(2,3), t=2
    assert staircase_count((2, 3), 2) == 18
    assert staircase_count((2, 3), 0) == 0
    assert staircase_count((0, 5), 1) == 0


def test_staircase_count_matches_enumeration_small():
    for n in (1, 2):
        for alpha in product(range(4), repeat=n):
            for t in range(4):
                B = scaled_simplex(alpha, t)
                if not has_finite_complement(B, n):
                    continue
                assert staircase_count(alpha, t) == len(complement(B, n))


def test_punctured_count_frozen_values():
    assert punctured_staircase_count((2, 2), (1, 2), 2) == 8
    assert punctured_staircase_count((3, 2), (3, 2), 1) == 0
    assert punctured_staircase_count((2,), (1,), 1) == 1


def test_punctured_count_matches_enumeration_small():
    for n in (1, 2):
        for alpha in product(range(4), repeat=n):
            for gamma in product(*(range(a + 1) for a in alpha)):
                for t in (1, 2, 3):
                    B = scaled_simplex(alpha, t)
                    shift = tuple(a - g for a, g in zip(alpha, gamma))
                    C = {
                        tuple(x + s for x, s in zip(b, shift))
                        for b in scaled_simplex(alpha, t - 1)
                    }
                    gens = B | C
                    if not has_finite_complement(gens, n):
                        continue
                    assert punctured_staircase_count(alpha, gamma, t) == len(
                        complement(gens, n)
                    )


def test_punctured_count_validation():
    with pytest.raises(GammaExceedsAlpha):
        punctured_staircase_count((1, 1), (2, 0), 1)
    with pytest.raises(ValueError):
        punctured_staircase_count((1, 1), (1, 1), 0)


def test_expvec_text():
    assert parse_expvec("(2,3)") == (2, 3)
    assert parse_expvec("(2,)") == (2,)
    assert parse_expvec("(2)") == (2,)
    assert format_expvec((2,)) == "(2,)"
    assert format_expvec((1, 0, 4)) == "(1,0,4)"
    with pytest.raises(ValueError):
        parse_expvec("2,3")
    with pytest.raises(ValueError):
        parse_expvec("(-1,2)")


def test_compositions_into_no_parts():
    # only the empty vector has no parts, and its sum is 0
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(1, 0)) == []
