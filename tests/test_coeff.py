import random
from fractions import Fraction

import pytest

from planarloops import (DomainError, PointedRing, QQ, Scalar, ZA, ZZ,
                         parse_ring, prime_field, specialize)


def S(domain, text):
    return Scalar.parse(domain, text)


def test_prime_field_arith():
    f5 = prime_field(5)
    assert Scalar.of(f5, 3) * Scalar.of(f5, 4) == Scalar.of(f5, 2)
    assert str(Scalar.of(f5, 7)) == "2 mod 5"


def test_poly_arith():
    assert S(ZA, "a+1") * S(ZA, "a-1") == S(ZA, "a^2-1")
    assert str(S(ZA, "3a^2+2a-1")) == "3a^2+2a-1"


def test_rational_arith():
    assert S(QQ, "1/2") + S(QQ, "1/3") == S(QQ, "5/6")


def test_composite_modulus_rejected():
    with pytest.raises(DomainError):
        prime_field(6)
    with pytest.raises(DomainError):
        prime_field(1)


def test_mixed_domains_rejected():
    with pytest.raises(DomainError):
        Scalar.of(ZZ, 1) + Scalar.of(QQ, 1)


def test_specialize_examples():
    assert specialize(S(ZA, "a^2+2a"), PointedRing.make(ZZ, 0)).value == 0
    assert specialize(S(ZA, "a"), PointedRing.make(prime_field(2), 1)).value == 1
    assert specialize(S(ZA, "3a"), PointedRing.make(ZZ, 2)).value == 6


def _random_scalar(rng, domain):
    if domain is ZZ:
        return Scalar.of(ZZ, rng.randint(-30, 30))
    if domain is QQ:
        return Scalar(QQ, Fraction(rng.randint(-20, 20), rng.randint(1, 9)))
    if domain.kind == "prime_field":
        return Scalar.of(domain, rng.randrange(domain.p))
    terms = {rng.randint(0, 3): rng.randint(-5, 5) for _ in range(rng.randint(0, 3))}
    return Scalar(ZA, tuple(sorted((e, c) for e, c in terms.items() if c)))


@pytest.mark.parametrize("domain", [ZZ, QQ, prime_field(5), ZA])
def test_ring_laws(domain):
    rng = random.Random(1)
    for _ in range(200):
        s, t, u = (_random_scalar(rng, domain) for _ in range(3))
        assert (s + t) + u == s + (t + u)
        assert s + t == t + s
        assert (s * t) * u == s * (t * u)
        assert s * t == t * s
        assert s * (t + u) == s * t + s * u


def test_specialize_is_ring_map():
    rng = random.Random(2)
    targets = [PointedRing.make(ZZ, 0), PointedRing.make(ZZ, 3),
               PointedRing.make(prime_field(7), 2), PointedRing.make(QQ, -1)]
    for _ in range(150):
        s, t = _random_scalar(rng, ZA), _random_scalar(rng, ZA)
        for ring in targets:
            assert specialize(s * t, ring) == specialize(s, ring) * specialize(t, ring)
            assert specialize(s + t, ring) == specialize(s, ring) + specialize(t, ring)


@pytest.mark.parametrize("domain", [ZZ, QQ, prime_field(5), ZA])
def test_text_roundtrip(domain):
    rng = random.Random(3)
    for _ in range(100):
        s = _random_scalar(rng, domain)
        text = str(s)
        assert str(Scalar.parse(domain, text)) == text


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
