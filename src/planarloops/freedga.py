"""Free graded tensor algebras with differentials given on generators.

Noncommutative polynomials are finite sums of words in graded generators.
A differential is specified on generators, extended by the graded Leibniz
rule d(uv) = d(u) v + (-1)^{deg u} u d(v), and verified to square to zero at
construction.  The two models of the 2n = 4 loop complex, the comparison
morphism between them, the diagram-valued morphism to the loop complex, and
the reflection (anti)automorphisms are built here, along with truncation of
an algebra to a word-basis chain complex; the complex of words on a finite
alphabet is one such truncation.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, replace
from operator import attrgetter

from .coeff import INT_POLY_A, ZZ, DomainError, LinearCombination, PointedRing
from .diagram import parse_diagram
from .homology import ChainComplexData, SparseMatrix
from .loops import (Chain, differential as loops_differential, empty_system,
                    loop_count, new_graffito)


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class GradedGenerator:
    name: str
    degree: int
    weight: int

    def __post_init__(self):
        if self.degree < 1:
            raise AlgebraError("generators have homological degree >= 1")


class NCPoly(LinearCombination):
    """A noncommutative polynomial: finite map from words to scalars."""

    __slots__ = ()
    ring_error = AlgebraError

    @staticmethod
    def key_product(w1: tuple[str, ...], w2: tuple[str, ...]) -> tuple[str, ...]:
        return w1 + w2

    @classmethod
    def zero(cls, ring) -> "NCPoly":
        return cls(ring, {})

    @classmethod
    def one(cls, ring) -> "NCPoly":
        return cls(ring, {(): ring.domain.one()})

    @classmethod
    def gen(cls, ring, name: str) -> "NCPoly":
        return cls(ring, {(name,): ring.domain.one()})

    @classmethod
    def constant(cls, ring, value) -> "NCPoly":
        return cls(ring, {(): value})

    def encode(self) -> str:
        if not self.terms:
            return "0"
        dom = self.ring.domain
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            c = dom.format(self.terms[w])
            neg = False
            # pull the sign out only when the remainder is a single term
            if c.startswith("-") and not (any(ch in c[1:] for ch in "+-") or " " in c):
                neg, c = True, c[1:]
            if any(ch in c[1:] for ch in "+-") or " " in c:
                c = f"({c})"
            if not w:
                body = c
            elif c == "1":
                body = ".".join(w)
            else:
                body = c + "*" + ".".join(w)
            parts.append(("-" if neg else "+", body))
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def parse_poly(ring: PointedRing, text: str) -> NCPoly:
    """Parse the dotted-word form, e.g. '2*x.xh.r - a*y'; x-hat aliases xh."""
    text = text.strip().replace("x̂", "xh").replace("̂", "h")
    if text == "0":
        return NCPoly.zero(ring)
    chunks = []
    depth, cur = 0, ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur.strip() and not cur.rstrip().endswith(("^", "*", ".")):
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    dom = ring.domain
    terms: dict[tuple[str, ...], object] = {}
    for chunk in chunks:
        chunk = chunk.strip()
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:].strip()
        if not chunk:
            raise AlgebraError("empty term in polynomial text")
        if "*" in chunk:
            ctext, wtext = chunk.split("*", 1)
            coeff = dom.parse(ctext.strip().strip("()"))
            word = tuple(wtext.strip().split("."))
        else:
            # a bare chunk is a scalar when it parses as one ('a', '3a^2'),
            # otherwise a coefficient-one word ('x', 'x1.x3')
            try:
                coeff = dom.parse(chunk.strip("()"))
                word = ()
            except DomainError:
                if not re.fullmatch(
                        r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*", chunk):
                    raise AlgebraError(f"cannot parse term {chunk!r}")
                coeff = dom.one()
                word = tuple(chunk.split("."))
        if sign < 0:
            coeff = dom.neg(coeff)
        terms[word] = dom.add(terms.get(word, dom.zero()), coeff)
    return NCPoly(ring, terms)


def _degree(p, key_degree) -> int:
    """Homological degree of a homogeneous element, from its keys."""
    if not p.terms:
        raise AlgebraError("a zero element has every degree")
    degs = {key_degree(k) for k in p.terms}
    if len(degs) != 1:
        raise AlgebraError(f"inhomogeneous element: degrees {sorted(degs)}")
    return degs.pop()


def _weight(p, key_weight) -> int:
    """Total weight of a weight-homogeneous element, scalars included."""
    if not p.terms:
        raise AlgebraError("a zero element has every weight")
    dom = p.ring.domain
    ws = set()
    for k, c in p.terms.items():
        cw = dom.weight(c)
        if cw is None:
            raise AlgebraError("coefficient is not weight-homogeneous")
        ws.add(key_weight(k) + cw)
    if len(ws) != 1:
        raise AlgebraError(f"mixed weights {sorted(ws)}")
    return ws.pop()


@dataclass(frozen=True)
class FreeDGA:
    """A free graded algebra with differential given on generators.

    The differential must lower homological degree by one and preserve the
    loop-count weight on each generator image, and square to zero; both are
    checked at construction.
    """

    ring: PointedRing
    generators: tuple[GradedGenerator, ...]
    d_images: dict  # name -> NCPoly

    def __post_init__(self):
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise AlgebraError("generator names must be unique")
        graded = self.ring.a_is_zero or self.ring.domain.kind == INT_POLY_A
        for g in self.generators:
            img = self.d_images[g.name]
            if not img.is_zero():
                if self.degree_of(img) != g.degree - 1:
                    raise AlgebraError(f"d({g.name}) does not drop degree by 1")
                # the weight grading only survives when the marked element
                # itself has weight 1, i.e. over the graded ring or at a = 0
                if graded and self.weight_of(img) != g.weight:
                    raise AlgebraError(f"d({g.name}) does not preserve weight")
            dd = self.differential(img)
            if not dd.is_zero():
                raise AlgebraError(f"d^2({g.name}) = {dd} is nonzero")

    def one(self) -> NCPoly:
        return NCPoly.one(self.ring)

    def gen_map(self) -> dict[str, GradedGenerator]:
        return {g.name: g for g in self.generators}

    def generator(self, name: str) -> NCPoly:
        if name not in self.gen_map():
            raise AlgebraError(f"unknown generator {name!r}")
        return NCPoly.gen(self.ring, name)

    def word_degree(self, word: tuple[str, ...]) -> int:
        gm = self.gen_map()
        try:
            return sum(gm[g].degree for g in word)
        except KeyError as e:
            raise AlgebraError(f"unknown generator {e.args[0]!r}") from None

    def word_weight(self, word: tuple[str, ...]) -> int:
        gm = self.gen_map()
        return sum(gm[g].weight for g in word)

    def degree_of(self, p: NCPoly) -> int:
        return _degree(p, self.word_degree)

    def weight_of(self, p: NCPoly) -> int:
        return _weight(p, self.word_weight)

    def differential(self, p: NCPoly) -> NCPoly:
        """Leibniz extension: d(uv) = d(u) v + (-1)^{deg u} u d(v)."""
        dom = self.ring.domain
        gm = self.gen_map()
        out = NCPoly.zero(self.ring)
        for word, coeff in p.terms.items():
            sign_deg = 0
            for i, g in enumerate(word):
                if g not in gm:
                    raise AlgebraError(f"unknown generator {g!r}")
                img = self.d_images[g]
                if not img.is_zero():
                    head = NCPoly(self.ring, {word[:i]: coeff})
                    tail = NCPoly(self.ring, {word[i + 1:]: dom.one()})
                    piece = head * img * tail
                    if sign_deg % 2:
                        piece = -piece
                    out = out + piece
                sign_deg += gm[g].degree
        return out


def minimal_model(two_n: int, ring: PointedRing) -> FreeDGA:
    """The small model with one generator in each odd degree below 2n.

    The degree-1 generator hits the marked element; the higher ones have
    binomially weighted decomposable differentials.
    """
    if two_n < 2 or two_n % 2:
        raise AlgebraError("two_n must be a positive even integer")
    gens = tuple(GradedGenerator(f"x{2 * i - 1}", 2 * i - 1, i)
                 for i in range(1, two_n // 2 + 1))
    dom = ring.domain
    d_images = {"x1": NCPoly.constant(ring, ring.a_value)}
    for i in range(2, two_n // 2 + 1):
        terms = {}
        for j in range(1, i):
            k = i - j
            word = (f"x{2 * j - 1}", f"x{2 * k - 1}")
            coeff = dom.from_int(math.comb(i, j))
            terms[word] = dom.add(terms.get(word, dom.zero()), coeff)
        d_images[f"x{2 * i - 1}"] = NCPoly(ring, terms)
    return FreeDGA(ring, gens, d_images)


def four_model(ring: PointedRing) -> FreeDGA:
    """The reflection-symmetric four-generator model of the 2n = 4 complex."""
    gens = (GradedGenerator("x", 1, 1), GradedGenerator("xh", 1, 1),
            GradedGenerator("r", 2, 1), GradedGenerator("y", 3, 2))
    dom = ring.domain
    a = NCPoly.constant(ring, ring.a_value)
    x, xh, r = (NCPoly.gen(ring, n) for n in ("x", "xh", "r"))
    two = dom.from_int(2)
    d_images = {
        "x": a,
        "xh": a,
        "r": xh - x,
        "y": (x * xh).scale(two) - (a * r).scale(two),
    }
    return FreeDGA(ring, gens, d_images)


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoopAlgebra:
    """The loop complex as the target of a model map: chains multiply by
    juxtaposition, the unit is the empty system, and a system's weight is
    its number of loops."""

    ring: PointedRing

    def one(self) -> Chain:
        return Chain.of(self.ring, empty_system())

    def differential(self, c: Chain) -> Chain:
        return loops_differential(c)

    def degree_of(self, c: Chain) -> int:
        return _degree(c, attrgetter("degree"))

    def weight_of(self, c: Chain) -> int:
        return _weight(c, loop_count)


@dataclass(frozen=True)
class DgaMorphism:
    """An algebra map determined on generators; target is a FreeDGA or a
    LoopAlgebra (images are then chains)."""

    source: FreeDGA
    target: FreeDGA | LoopAlgebra
    images: dict    # name -> NCPoly or Chain; the int 0 is the zero image

    def __post_init__(self):
        unit = self.target.one()
        images = {name: type(unit)(unit.ring) if type(img) is int and img == 0
                  else img for name, img in self.images.items()}
        object.__setattr__(self, "images", images)
        for g in self.source.generators:
            img = images[g.name]
            if img.is_zero():  # homogeneous of every degree and weight
                continue
            deg = self.target.degree_of(img)
            if deg != g.degree:
                raise AlgebraError(f"image of {g.name} has degree {deg}, not {g.degree}")
            wt = self.target.weight_of(img)
            if wt != g.weight:
                raise AlgebraError(f"image of {g.name} has weight {wt}, not {g.weight}")

    def apply(self, p: NCPoly):
        unit = self.target.one()
        out = type(unit)(unit.ring)
        for word, coeff in p.terms.items():
            img = unit
            for g in word:
                img = img * self.images[g]
            out = out + img.scale(coeff)
        return out

    def compose_with(self, other: "DgaMorphism") -> "DgaMorphism":
        """The composite sending g to other.apply(self.images[g])."""
        return DgaMorphism(self.source, other.target,
                           {g.name: other.apply(self.images[g.name])
                            for g in self.source.generators})


def psi(ring: PointedRing) -> DgaMorphism:
    """Comparison map from the minimal model into the four-generator model."""
    src = minimal_model(4, ring)
    tgt = four_model(ring)
    x = NCPoly.gen(ring, "x")
    r = NCPoly.gen(ring, "r")
    y = NCPoly.gen(ring, "y")
    two = ring.domain.from_int(2)
    return DgaMorphism(src, tgt, {"x1": x, "x3": y + (x * r).scale(two)})


def _loop_generator_images(ring: PointedRing) -> dict[str, Chain]:
    g = lambda text: new_graffito(4, "cc", [parse_diagram(t) for t in text])
    img_x = g(["TL(0,4){R1-R2,R3-R4}", "TL(4,0){L1-L4,L2-L3}"])
    img_xh = g(["TL(0,4){R1-R4,R2-R3}", "TL(4,0){L1-L2,L3-L4}"])
    img_r = g(["TL(0,4){R1-R2,R3-R4}",
               "TL(4,4){L1-R1,L2-L3,L4-R4,R2-R3}",
               "TL(4,0){L1-L2,L3-L4}"])
    b0 = "TL(0,4){R1-R2,R3-R4}"
    b3 = "TL(4,0){L1-L2,L3-L4}"
    fac_a = "TL(4,4){L1-R3,L2-L3,L4-R4,R1-R2}"
    fac_b = "TL(4,4){L1-L2,L3-R1,L4-R4,R2-R3}"
    fac_c = "TL(4,4){L1-R1,L2-L3,L4-R2,R3-R4}"
    fac_d = "TL(4,4){L1-R1,L2-R4,L3-L4,R2-R3}"
    dom = ring.domain
    one, neg = dom.one(), dom.from_int(-1)
    img_y = Chain(ring, {
        g([b0, fac_a, fac_b, b3]): one,
        g([b0, fac_c, fac_d, b3]): one,
        g([b0, fac_a, fac_d, b3]): neg,
        g([b0, fac_c, fac_b, b3]): neg,
    })
    return {"x": Chain.of(ring, img_x), "xh": Chain.of(ring, img_xh),
            "r": Chain.of(ring, img_r), "y": img_y}


def phi(ring: PointedRing) -> DgaMorphism:
    """The diagram-valued model map: generators go to explicit loop systems."""
    return DgaMorphism(four_model(ring), LoopAlgebra(ring),
                       _loop_generator_images(ring))


@dataclass(frozen=True)
class ChainMapReport:
    ok: bool
    defects: tuple  # (generator name, defect element) with nonzero defect

    def __str__(self):
        if self.ok:
            return "chain map: all generator defects vanish"
        names = ", ".join(n for n, _ in self.defects)
        return f"chain map fails on {names}"


def check_chain_map(m: DgaMorphism) -> ChainMapReport:
    """d(m(g)) - m(d(g)) for every source generator, exactly."""
    defects = []
    for g in m.source.generators:
        lhs = m.target.differential(m.images[g.name])
        rhs = m.apply(m.source.d_images[g.name])
        diff = lhs - rhs
        if not diff.is_zero():
            defects.append((g.name, diff))
    return ChainMapReport(not defects, tuple(defects))


# ---------------------------------------------------------------------------
# Involutions on the models
# ---------------------------------------------------------------------------

def model_involutions(algebra: FreeDGA):
    """The generator-fixing involution and the word-reversing antiinvolution.

    On the four-generator model the antiinvolution swaps the two degree-1
    generators; on the minimal models it fixes every generator.
    """
    names = {g.name for g in algebra.generators}
    swap = {"x": "xh", "xh": "x"} if {"x", "xh"} <= names else {}

    def sigma_ud(p: NCPoly) -> NCPoly:
        return p

    def sigma_lr(p: NCPoly) -> NCPoly:
        return NCPoly(p.ring, {
            tuple(swap.get(g, g) for g in reversed(w)): v
            for w, v in p.terms.items()})

    return sigma_ud, sigma_lr


@dataclass(frozen=True)
class InvolutionReport:
    ok: bool
    failures: tuple

    def __str__(self):
        return "involution relations hold" if self.ok else \
            f"{len(self.failures)} involution relation failures"


def sample_words(algebra: FreeDGA, samples: int = 200,
                 seed: int = 0) -> list[tuple[NCPoly, int]]:
    """(word, degree) for every generator, then for seeded random words of
    one to four letters."""
    rng = random.Random(seed)
    gens = [g.name for g in algebra.generators]
    words = [(g,) for g in gens]
    for _ in range(samples):
        length = rng.randint(1, 4)
        words.append(tuple(rng.choice(gens) for _ in range(length)))
    one = algebra.ring.domain.one()
    return [(NCPoly(algebra.ring, {w: one}), algebra.word_degree(w))
            for w in words]


def check_involution_relations(elements, differential, sigma_v,
                               sigma_h) -> InvolutionReport:
    """d sigma_v = sigma_v d and d sigma_h = (-1)^{deg+1} sigma_h d on each
    nonzero element of (element, degree) pairs.

    The same check serves the models (model polynomials, the model's
    differential and model_involutions) and the loop complex (chains, the
    loop differential and the two chain reflections).
    """
    d = differential
    failures = []
    for e, deg in elements:
        if e.is_zero():
            continue
        if d(sigma_v(e)) != sigma_v(d(e)):
            failures.append(("vertical", e.encode()))
        rhs = sigma_h(d(e))
        if (deg + 1) % 2:
            rhs = -rhs
        if d(sigma_h(e)) != rhs:
            failures.append(("horizontal", e.encode()))
    return InvolutionReport(not failures, tuple(failures))


def alpha_boundary_check(ring: PointedRing) -> ChainMapReport:
    """The reflected and plain images of x1 x3 + x3 x1 differ by an exact
    boundary of the four-generator model; requires a = 0."""
    if not ring.a_is_zero:
        raise AlgebraError("the boundary identity is checked at a = 0")
    model = four_model(ring)
    _, sigma_lr = model_involutions(model)
    ps = psi(ring)
    x1, x3 = (NCPoly.gen(ring, n) for n in ("x1", "x3"))
    alpha = ps.apply(x1 * x3 + x3 * x1)
    x, xh, r, y = (NCPoly.gen(ring, n) for n in ("x", "xh", "r", "y"))
    two = ring.domain.from_int(2)
    primitive = r * y - y * r + (r * r * xh).scale(two) - (x * r * r).scale(two)
    defect = sigma_lr(alpha) - alpha - model.differential(primitive)
    if defect.is_zero():
        return ChainMapReport(True, ())
    return ChainMapReport(False, (("alpha", defect),))


# ---------------------------------------------------------------------------
# Truncation to a chain complex
# ---------------------------------------------------------------------------

def truncated_complex(algebra: FreeDGA, max_degree: int) -> ChainComplexData:
    """Nonunital word-basis chain complex of the algebra through the given
    degree.

    Degree p is spanned by the nonempty words of homological degree p,
    ordered by length then generator index; the empty word is left out, and
    with it the constant part of every differential.  Each term (t, v)
    of d(g) puts (-1)^(degree of w[:i]) v at the word w[:i] + t + w[i+1:]
    in the column of w, for every position i of g in w.  Over Z[a] each v
    is n * a^(weight of g - weight of t), as the algebra checked at
    construction, so the complex stores the integer n of each term.
    """
    ring = algebra.ring
    graded = ring.domain.kind == INT_POLY_A
    dom = ZZ if graded else ring.domain
    words: dict[int, list[tuple[str, ...]]] = {p: [] for p in range(max_degree + 1)}
    # breadth first, one letter per round in generator order: each degree
    # receives its words by length, then generator index
    frontier = [((), 0)]
    while frontier:
        frontier = [(w + (g.name,), d + g.degree) for w, d in frontier
                    for g in algebra.generators if d + g.degree <= max_degree]
        for w, d in frontier:
            words[d].append(w)
    basis = {p: tuple(".".join(w) for w in words[p])
             for p in range(max_degree + 1)}
    weights = {p: tuple(algebra.word_weight(w) for w in words[p])
               for p in range(max_degree + 1)}
    degree = {g.name: g.degree for g in algebra.generators}
    terms = {g: [(t, v[0][1] if graded else v) for t, v in img.terms.items()]
             for g, img in algebra.d_images.items()}
    matrices = {}
    for p in range(1, max_degree + 1):
        index = {w: i for i, w in enumerate(words[p - 1])}
        data = {}
        for col, w in enumerate(words[p]):
            left = 0
            for i, g in enumerate(w):
                for t, v in terms[g]:
                    tw = w[:i] + t + w[i + 1:]
                    if not tw:
                        continue
                    key = (index[tw], col)
                    data[key] = dom.add(data.get(key, dom.zero()),
                                        dom.neg(v) if left % 2 else v)
                left += degree[g]
        matrices[p] = SparseMatrix.from_dict(
            len(words[p - 1]), len(words[p]), data, dom)
    label = "model(" + ",".join(g.name for g in algebra.generators) + ")"
    return ChainComplexData(ring, max_degree, basis, matrices,
                            weights=weights, description=label)


def build_word_complex(alphabet_size: int, max_degree: int,
                       ring: PointedRing | None = None) -> ChainComplexData:
    """Complex of nonempty words on a finite alphabet.

    The truncation of the free algebra on letters "1", ..., "s" of degree 1
    and weight 0 with d(letter) = 1: degree p is spanned by the words of
    length p, and the boundary is the alternating sum of single-letter
    deletions, the first with positive sign.  Its homology is one copy of
    the ring in degree 1.
    """
    if alphabet_size < 1:
        raise AlgebraError("alphabet_size must be >= 1")
    ring = ring or PointedRing.make(ZZ, 0)
    letters = tuple(GradedGenerator(str(i), 1, 0)
                    for i in range(1, alphabet_size + 1))
    algebra = FreeDGA(ring, letters, {g.name: NCPoly.one(ring) for g in letters})
    return replace(truncated_complex(algebra, max_degree),
                   description=f"words on {alphabet_size} letters")

