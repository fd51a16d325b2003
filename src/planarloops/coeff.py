"""Exact coefficient domains: Z, Q, F_p, and the graded polynomial ring Z[a].

Every computation in this package is exact; there is no floating point
anywhere.  A domain owns the arithmetic, validation and canonical text forms
of raw values (python ints for Z; ints for Q too, with a Fraction only where
a division makes a non-integer; ints mod p; sparse exponent tuples for Z[a]);
values carry no domain tag, so the caller keeps each with its domain.
Pointed rings (R, a) bundle a domain with a chosen element a, the value
substituted for each closed loop, and LinearCombination is the free-module
arithmetic over a pointed ring that loop chains and model polynomials share.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction


class DomainError(ValueError):
    """Mixed-domain operands, or an invalid domain construction."""


INTEGERS = "integers"
RATIONALS = "rationals"
PRIME_FIELD = "prime_field"
INT_POLY_A = "int_poly_a"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


# Z[a] raw values are tuples of (exponent, coefficient) with exponents
# strictly increasing and coefficients nonzero; () is zero.
def _poly_canonical(terms) -> tuple:
    acc: dict[int, int] = {}
    for e, c in terms:
        acc[e] = acc.get(e, 0) + c
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0))


@dataclass(frozen=True)
class CoefficientDomain:
    """One of the supported exact coefficient domains.

    kind is one of 'integers', 'rationals', 'prime_field', 'int_poly_a';
    p is the characteristic for prime fields and None otherwise.
    """

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in (INTEGERS, RATIONALS, PRIME_FIELD, INT_POLY_A):
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if self.kind == PRIME_FIELD:
            if self.p is None or not _is_prime(self.p):
                raise DomainError(f"prime_field requires a prime p, got {self.p!r}")
        elif self.p is not None:
            raise DomainError("p is only meaningful for prime_field")

    # -- constants ---------------------------------------------------------
    def zero(self):
        return () if self.kind == INT_POLY_A else 0

    def one(self):
        return ((0, 1),) if self.kind == INT_POLY_A else 1

    def from_int(self, n: int):
        if self.kind == PRIME_FIELD:
            return n % self.p
        if self.kind == INT_POLY_A:
            return _poly_canonical([(0, n)])
        return n

    # -- arithmetic on raw values -----------------------------------------
    def add(self, s, t):
        if self.kind == PRIME_FIELD:
            return (s + t) % self.p
        if self.kind == INT_POLY_A:
            return _poly_canonical(list(s) + list(t))
        return s + t

    def neg(self, s):
        if self.kind == PRIME_FIELD:
            return (-s) % self.p
        if self.kind == INT_POLY_A:
            return tuple((e, -c) for e, c in s)
        return -s

    def sub(self, s, t):
        return self.add(s, self.neg(t))

    def mul(self, s, t):
        if self.kind == PRIME_FIELD:
            return (s * t) % self.p
        if self.kind == INT_POLY_A:
            return _poly_canonical(
                (e1 + e2, c1 * c2) for e1, c1 in s for e2, c2 in t)
        return s * t

    def is_zero(self, s) -> bool:
        if self.kind == INT_POLY_A:
            return s == ()
        return s == 0

    def is_field(self) -> bool:
        return self.kind in (RATIONALS, PRIME_FIELD)

    def inv(self, s):
        if self.kind == RATIONALS:
            if s == 0:
                raise ZeroDivisionError("inverse of 0")
            return s if s in (1, -1) else Fraction(1, s)
        if self.kind == PRIME_FIELD:
            if s % self.p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(s, -1, self.p)
        raise DomainError(f"{self.kind} is not a field")

    def validate(self, s) -> None:
        """Reject raw values that are not in canonical form for this domain.

        A Q value is an int (not a bool) or a Fraction; the two compare,
        hash and print alike wherever they are equal.
        """
        if self.kind == INTEGERS:
            if not isinstance(s, int) or isinstance(s, bool):
                raise DomainError(f"not an integer: {s!r}")
        elif self.kind == RATIONALS:
            if not isinstance(s, (int, Fraction)) or isinstance(s, bool):
                raise DomainError(f"not a rational: {s!r}")
        elif self.kind == PRIME_FIELD:
            if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < self.p:
                raise DomainError(f"not reduced mod {self.p}: {s!r}")
        else:
            try:
                canonical = s == _poly_canonical(s)
            except (TypeError, ValueError):
                raise DomainError(f"not a polynomial: {s!r}") from None
            if not canonical:
                raise DomainError(f"polynomial not canonical: {s!r}")
            for e, c in s:
                if type(e) is not int or type(c) is not int:  # not a bool
                    raise DomainError(f"not a polynomial over Z: {s!r}")
                if e < 0:
                    raise DomainError("negative exponent")

    # -- grading -----------------------------------------------------------
    def weight(self, s) -> int | None:
        """Weight of a homogeneous scalar: k for c*a^k, 0 on constants.

        Returns None for inhomogeneous Z[a] values; nonzero constants in the
        other domains have weight 0, and zero has any weight (None).
        """
        if self.is_zero(s):
            return None
        if self.kind == INT_POLY_A:
            exps = {e for e, _ in s}
            return exps.pop() if len(exps) == 1 else None
        return 0

    # -- text forms ---------------------------------------------------------
    def format(self, s) -> str:
        if self.kind == INTEGERS:
            return str(s)
        if self.kind == RATIONALS:
            return str(s)
        if self.kind == PRIME_FIELD:
            return f"{s} mod {self.p}"
        if s == ():
            return "0"
        parts = []
        for e, c in reversed(s):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = head + ("a" if e == 1 else f"a^{e}")
            parts.append((sign, body))
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            out += sign + body
        return out

    def parse(self, text: str):
        text = text.strip()
        if self.kind == INTEGERS:
            if not re.fullmatch(r"-?[0-9]+", text):
                raise DomainError(f"bad integer literal {text!r}")
            return int(text)
        if self.kind == RATIONALS:
            m = re.fullmatch(r"-?[0-9]+(?:/([0-9]+))?", text)
            if not m:
                raise DomainError(f"bad rational literal {text!r}")
            if m.group(1) is not None and int(m.group(1)) == 0:
                raise DomainError(f"zero denominator in {text!r}")
            q = Fraction(text)
            return q.numerator if q.denominator == 1 else q
        if self.kind == PRIME_FIELD:
            m = re.fullmatch(r"(-?[0-9]+)(\s*mod\s*([0-9]+))?", text)
            if not m:
                raise DomainError(f"bad field literal {text!r}")
            if m.group(3) is not None and int(m.group(3)) != self.p:
                raise DomainError(f"wrong modulus in {text!r}")
            return int(m.group(1)) % self.p
        return _parse_poly(text)

    def __repr__(self):
        if self.kind == PRIME_FIELD:
            return f"F{self.p}"
        return {INTEGERS: "Z", RATIONALS: "Q", INT_POLY_A: "Z[a]"}[self.kind]


_POLY_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<coef>[0-9]+)\s*\*?\s*)?(?P<a>a(\^(?P<exp>[0-9]+))?)?\s*")


def _parse_poly(text: str) -> tuple:
    pos, terms = 0, []
    text = text.strip()
    if not text:
        raise DomainError("empty polynomial literal")
    while pos < len(text):
        m = _POLY_TERM.match(text, pos)
        if not m or m.end() == pos or (m.group("coef") is None and m.group("a") is None):
            raise DomainError(f"bad polynomial literal {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef = int(m.group("coef")) if m.group("coef") else 1
        if m.group("a"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        terms.append((exp, sign * coef))
        pos = m.end()
    return _poly_canonical(terms)


# Shared domain instances.
ZZ = CoefficientDomain(INTEGERS)
QQ = CoefficientDomain(RATIONALS)
ZA = CoefficientDomain(INT_POLY_A)


def prime_field(p: int) -> CoefficientDomain:
    return CoefficientDomain(PRIME_FIELD, p)


@dataclass(frozen=True)
class PointedRing:
    """A coefficient domain together with the loop value a."""

    domain: CoefficientDomain
    a_value: object

    def __post_init__(self):
        self.domain.validate(self.a_value)

    @classmethod
    def make(cls, domain: CoefficientDomain, a: int | None = None) -> "PointedRing":
        if domain.kind == INT_POLY_A:
            if a not in (None, "a"):
                raise DomainError("over Z[a] the marked element is the generator a")
            return cls(domain, ((1, 1),))
        return cls(domain, domain.from_int(0 if a is None else a))

    def a_power(self, k: int):
        v = self.domain.one()
        for _ in range(k):
            v = self.domain.mul(v, self.a_value)
        return v

    @property
    def a_is_zero(self) -> bool:
        return self.domain.is_zero(self.a_value)

    def __repr__(self):
        return f"({self.domain!r}, a={self.domain.format(self.a_value)})"


class LinearCombination:
    """A finite linear combination of keys with raw scalars of a pointed ring.

    terms maps each key to a nonzero scalar; zeros are dropped on
    construction.  A subclass supplies encode, how two keys multiply
    (key_product), and the error raised for operands of another type or ring
    (ring_error).
    """

    __slots__ = ("ring", "terms")
    ring_error: type[Exception] = DomainError

    def __init__(self, ring: PointedRing, terms: dict | None = None):
        self.ring = ring
        dom = ring.domain
        self.terms = {k: v for k, v in (terms or {}).items() if not dom.is_zero(v)}

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other) -> None:
        if type(other) is not type(self) or other.ring != self.ring:
            raise self.ring_error(
                f"cannot combine {type(self).__name__} over {self.ring!r} with "
                f"{type(other).__name__} over {getattr(other, 'ring', None)!r}")

    def __add__(self, other):
        self._check(other)
        dom = self.ring.domain
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = dom.add(out.get(k, dom.zero()), v)
        return type(self)(self.ring, out)

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        return self.scale(self.ring.domain.from_int(-1))

    def scale(self, c):
        dom = self.ring.domain
        return type(self)(self.ring, {k: dom.mul(c, v) for k, v in self.terms.items()})

    def __mul__(self, other):
        self._check(other)
        dom = self.ring.domain
        out: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = self.key_product(k1, k2)
                out[k] = dom.add(out.get(k, dom.zero()), dom.mul(v1, v2))
        return type(self)(self.ring, out)

    def __eq__(self, other):
        return (type(other) is type(self) and self.ring == other.ring
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __str__(self):
        return self.encode()

    def __repr__(self):
        return f"{type(self).__name__}({self.encode()})"


def parse_ring(code: str, a: int = 0) -> PointedRing:
    """The pointed ring named by code: z, q or f<p> with loop value a, or za."""
    code = code.lower()
    if code == "za":
        return PointedRing.make(ZA)
    if code == "z":
        return PointedRing.make(ZZ, a)
    if code == "q":
        return PointedRing.make(QQ, a)
    if code.startswith("f") and code[1:].isdigit():
        return PointedRing.make(prime_field(int(code[1:])), a)
    raise DomainError(f"unknown ring {code!r} (use z, q, f<p>, za)")
