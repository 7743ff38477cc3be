from fractions import Fraction

import pytest

from combnull import GF, QQ, ZZ, ParseError, RingMismatch, UnsupportedField, Zmod, parse_ring
from conftest import elements


def test_modular_arithmetic_wraps():
    R = Zmod(6)
    assert R.mul(2, 3) == 0
    assert R.add(5, 5) == 4
    assert R.neg(2) == 4
    assert R.sub(1, 5) == 2


def test_integer_identity():
    assert ZZ.add(17, 0) == 17
    assert ZZ.mul(-3, 4) == -12


def test_rational_inverse_pair():
    assert QQ.mul(Fraction(2, 3), Fraction(3, 2)) == 1
    assert QQ.canon(Fraction(4, -6)) == Fraction(-2, 3)


def test_canonical_representatives():
    R = Zmod(7)
    assert R.canon(-1) == 6
    assert R.canon(14) == 0
    with pytest.raises(ParseError):
        ZZ.canon(Fraction(1, 2))


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(6), GF(5)], ids=str)
@pytest.mark.parametrize("value", [True, False])
def test_bool_is_not_an_element(ring, value):
    with pytest.raises(ParseError, match="not an element of"):
        ring.canon(value)


def test_zero_divisors():
    assert Zmod(6).is_zero_divisor(2)
    assert not Zmod(6).is_zero_divisor(5)
    # zero divides zero against any nonzero witness, in every ring here
    assert ZZ.is_zero_divisor(0)
    assert QQ.is_zero_divisor(Fraction(0))
    assert Zmod(6).is_zero_divisor(0)
    assert not ZZ.is_zero_divisor(3)


@pytest.mark.parametrize("m", range(2, 13))
def test_zero_divisor_matches_exhaustive_scan(m):
    R = Zmod(m)
    for a in elements(R):
        brute = any((a * w) % m == 0 for w in range(1, m))
        assert R.is_zero_divisor(a) == brute


@pytest.mark.parametrize("m", range(2, 13))
def test_unit_implies_not_zero_divisor(m):
    R = Zmod(m)
    for a in elements(R):
        if any((a * w) % m == 1 for w in range(m)):
            assert not R.is_zero_divisor(a)


def test_gf_requires_prime():
    GF(7)
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7
    for q in (4, 9, 1, 561, 3215031751):
        with pytest.raises(UnsupportedField):
            GF(q)


def test_gf_large_prime_builds():
    assert GF(2**61 - 1).modulus == 2**61 - 1


def test_gf_refuses_moduli_past_exact_primality():
    # 2^89 - 1 is prime, but above the range where the test is exact
    with pytest.raises(UnsupportedField, match="exactly"):
        GF(2**89 - 1)


def test_primality_matches_trial_division():
    from combnull.rings import _is_prime

    def trial(p):
        return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))

    assert all(_is_prime(p) == trial(p) for p in range(10_000))


def test_modulus_lower_bound():
    with pytest.raises(ValueError):
        Zmod(1)


def test_ring_text_round_trip():
    for text in ("ZZ", "QQ", "ZZ/6", "GF(7)"):
        assert str(parse_ring(text)) == text
    with pytest.raises(ParseError):
        parse_ring("ZZ/x")
    with pytest.raises(ParseError):
        parse_ring("RR")
    with pytest.raises(ParseError, match=r"^modulus must be >= 2 in 'ZZ/1'$"):
        parse_ring("ZZ/1")
    with pytest.raises(ParseError, match=r"^bad prime in 'GF\(x\)'$"):
        parse_ring("GF(x)")


def test_element_parsing():
    assert Zmod(6).parse_element("-1") == 5
    assert QQ.parse_element("2/3") == Fraction(2, 3)
    assert QQ.parse_element("-2/3") == Fraction(-2, 3)
    with pytest.raises(ParseError):
        ZZ.parse_element("2/3")
    with pytest.raises(ParseError):
        ZZ.parse_element("abc")


def test_require_same():
    with pytest.raises(RingMismatch):
        ZZ.require_same(Zmod(6))
    ZZ.require_same(ZZ)
    # GF(p) and ZZ/p are distinct descriptors on purpose
    with pytest.raises(RingMismatch):
        GF(5).require_same(Zmod(5))


def test_pow():
    assert Zmod(6).pow(5, 2) == 1
    assert QQ.pow(Fraction(2, 3), 3) == Fraction(8, 27)
    assert ZZ.pow(2, 10) == 1024
    assert ZZ.pow(7, 0) == 1
