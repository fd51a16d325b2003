import random
from fractions import Fraction

import pytest

from planarloops import (DomainError, PointedRing, QQ, ZA, ZZ, parse_ring,
                         prime_field)


def test_prime_field_arith():
    f5 = prime_field(5)
    assert f5.mul(f5.from_int(3), f5.from_int(4)) == f5.from_int(2)
    assert f5.format(f5.from_int(7)) == "2 mod 5"


def test_poly_arith():
    assert ZA.mul(ZA.parse("a+1"), ZA.parse("a-1")) == ZA.parse("a^2-1")
    assert ZA.format(ZA.parse("3a^2+2a-1")) == "3a^2+2a-1"


def test_rational_arith():
    assert QQ.add(QQ.parse("1/2"), QQ.parse("1/3")) == QQ.parse("5/6")


def test_rational_values_are_ints_where_integral():
    assert {type(QQ.zero()), type(QQ.one()), type(QQ.from_int(-3))} == {int}
    for bad in (True, 0.5, "1"):
        with pytest.raises(DomainError):
            QQ.validate(bad)
    assert type(QQ.parse("4/2")) is int and QQ.parse("4/2") == 2
    assert type(QQ.inv(1)) is int and type(QQ.inv(-1)) is int
    assert QQ.inv(-1) == -1
    assert QQ.inv(2) == Fraction(1, 2)


def test_rational_zero_denominator_is_a_domain_error():
    with pytest.raises(DomainError, match="zero denominator"):
        QQ.parse("1/0")


def test_composite_modulus_rejected():
    with pytest.raises(DomainError):
        prime_field(6)
    with pytest.raises(DomainError):
        prime_field(1)


def _random_value(rng, domain):
    """A raw value of the domain, in canonical form."""
    if domain is ZZ:
        return rng.randint(-30, 30)
    if domain is QQ:
        # an int, or a Fraction (integral or not), so operands mix the two
        n = rng.randint(-20, 20)
        return n if rng.random() < 0.5 else Fraction(n, rng.randint(1, 9))
    if domain.kind == "prime_field":
        return rng.randrange(domain.p)
    terms = {rng.randint(0, 3): rng.randint(-5, 5) for _ in range(rng.randint(0, 3))}
    return tuple(sorted((e, c) for e, c in terms.items() if c))


@pytest.mark.parametrize("domain", [ZZ, QQ, prime_field(5), ZA])
def test_ring_laws(domain):
    rng = random.Random(1)
    add, mul = domain.add, domain.mul
    for _ in range(200):
        s, t, u = (_random_value(rng, domain) for _ in range(3))
        assert add(add(s, t), u) == add(s, add(t, u))
        assert add(s, t) == add(t, s)
        assert mul(mul(s, t), u) == mul(s, mul(t, u))
        assert mul(s, t) == mul(t, s)
        assert mul(s, add(t, u)) == add(mul(s, t), mul(s, u))
        assert domain.is_zero(domain.sub(s, s))
        # every result is in canonical form
        for v in (add(s, t), mul(s, t), domain.neg(s)):
            domain.validate(v)


@pytest.mark.parametrize("domain", [ZZ, QQ, prime_field(5), ZA])
def test_text_roundtrip(domain):
    rng = random.Random(3)
    for _ in range(100):
        s = _random_value(rng, domain)
        text = domain.format(s)
        assert domain.parse(text) == s
        assert domain.format(domain.parse(text)) == text


def test_za_pointed_ring_marks_generator():
    ring = PointedRing.make(ZA)
    assert ring.a_value == ((1, 1),)
    assert ring.a_power(3) == ((3, 1),)
    with pytest.raises(DomainError):
        PointedRing.make(ZA, 5)


def test_parse_ring_codes():
    assert parse_ring("z") == PointedRing.make(ZZ, 0)
    assert parse_ring("Q", 1) == PointedRing.make(QQ, 1)
    assert parse_ring("f3", 1) == PointedRing.make(prime_field(3), 1)
    assert parse_ring("za") == PointedRing.make(ZA)
    for bad in ("r", "f", "fx", "f4"):
        with pytest.raises(DomainError):
            parse_ring(bad)
