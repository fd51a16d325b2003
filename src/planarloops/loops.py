"""Complexes of planar loops: loop systems pinned by bars, and their algebra.

A basis element (a pinned loop system) is a sequence of diagrams: a cell
state entering the first bar, square nonidentity diagrams between bars, and
a cell state leaving the last bar.  Bar deletion composes adjacent factors,
turning every loop that falls off the bars into a factor of the marked ring
element; the alternating sum of deletions is the differential.  Juxtaposing
pictures multiplies them.  The one-bar letters, the loop-count (weight) and
divider statistics, and the assembly of filtered subquotient complexes into
boundary-matrix data all live here.

The complex is a normalized bar construction, so the deletions inside a
word's tail depend on its prefix only through the prefix's class: the
boundaries are written from per-class tail templates, and the consistency
checks run once per template merge, not per entry (_Tails).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import count, repeat
from typing import Iterator, NamedTuple

from .coeff import INT_POLY_A, ZZ, LinearCombination, PointedRing
from .diagram import (EMPTY_DIAGRAM, LEFT_CELL, RIGHT_CELL, Letter,
                      LinkState, TLDiagram, cell_basis, close_up, compose,
                      enumerate_diagrams, glue, slice_diagram, unslice)
from .homology import Basis, ChainComplexData, SparseMatrix


class GraffitoError(ValueError):
    pass


@dataclass(frozen=True)
class EndSpec:
    """End behaviour of a loop complex: open/closed ends plus augmentation."""

    left_open: bool = False
    right_open: bool = False
    augmented: bool = False

    def __post_init__(self):
        if self.augmented and (self.left_open or self.right_open):
            raise GraffitoError("only closed-end complexes can be augmented")

    @property
    def code(self) -> str:
        return ("o" if self.left_open else "c") + ("o" if self.right_open else "c")

    @classmethod
    def from_code(cls, code: str, augmented: bool = False) -> "EndSpec":
        if len(code) != 2 or set(code) - set("oc"):
            raise GraffitoError(f"bad end code {code!r}")
        return cls(code[0] == "o", code[1] == "o", augmented)


CLOSED = EndSpec()


@dataclass(frozen=True)
class Graffito:
    """A pinned loop system: the tensor-factor sequence beta_0 | ... | beta_p.

    factors[0] is a (k_l, 2n) state with no stub-to-stub pair, the inner
    factors are nonidentity (2n, 2n) diagrams, and factors[-1] is a
    (2n, k_r) state with no stub-to-stub pair; k is 0 at a closed end and 2
    at an open one.  The degree is the number of bars.  The single factor
    TL(0,0){} stands for the empty system, the degree-0 generator of an
    augmented complex.  Construction only validates; loop_count and
    divider_count compute the statistics when they are called.
    """

    two_n: int
    left_open: bool
    right_open: bool
    factors: tuple[TLDiagram, ...]

    def __post_init__(self):
        n = self.two_n
        if n <= 0 or n % 2:
            raise GraffitoError("two_n must be a positive even integer")
        if self.is_empty_system:
            if self.left_open or self.right_open:
                raise GraffitoError("the empty system has closed ends")
            return
        if len(self.factors) < 2:
            raise GraffitoError("a pinned system has at least one bar")
        kl = 2 if self.left_open else 0
        kr = 2 if self.right_open else 0
        if (kl or kr) and n != 4:
            raise GraffitoError("open ends are only defined for 2n = 4")
        first, last = self.factors[0], self.factors[-1]
        if (first.n, first.m) != (kl, n) or first.has_ll_pair():
            raise GraffitoError(f"bad entering state {first}")
        if (last.n, last.m) != (n, kr) or last.has_rr_pair():
            raise GraffitoError(f"bad leaving state {last}")
        for f in self.factors[1:-1]:
            if (f.n, f.m) != (n, n):
                raise GraffitoError(f"inner factor {f} has wrong shape")
            if f.is_identity():
                raise GraffitoError("inner factors must not be the identity")

    @property
    def is_empty_system(self) -> bool:
        return self.factors == (EMPTY_DIAGRAM,)

    @property
    def degree(self) -> int:
        return 0 if self.is_empty_system else len(self.factors) - 1

    @property
    def ends(self) -> EndSpec:
        return EndSpec(self.left_open, self.right_open)

    def encode(self) -> str:
        body = " | ".join(f.encode() for f in self.factors)
        return f"G({self.ends.code})[{body}]"

    def __str__(self):
        return self.encode()


def new_graffito(two_n: int, ends: EndSpec | str, factors) -> Graffito:
    if isinstance(ends, str):
        ends = EndSpec.from_code(ends)
    return Graffito(two_n, ends.left_open, ends.right_open, tuple(factors))


def empty_system(two_n: int = 4) -> Graffito:
    return Graffito(two_n, False, False, (EMPTY_DIAGRAM,))


def parse_graffito(text: str) -> Graffito:
    from .diagram import parse_diagram
    import re
    text = text.strip()
    m = re.fullmatch(r"G\((oo|oc|co|cc)\)\[(.*)\]", text, re.S)
    if not m:
        raise GraffitoError(f"cannot parse loop system {text!r}")
    factors = tuple(parse_diagram(part) for part in m.group(2).split("|"))
    two_n = 4 if factors == (EMPTY_DIAGRAM,) else factors[0].m
    return new_graffito(two_n, m.group(1), factors)


def parse_chain(text: str, ring: PointedRing) -> "Chain":
    """Parse the canonical chain form '<scalar>*G(..)[..] + ...' ('0' = zero)."""
    text = text.strip()
    if text == "0":
        return Chain(ring)
    dom = ring.domain
    terms: dict[Graffito, object] = {}
    for part in text.split(" + "):
        part = part.strip()
        cut = part.find("*G(")
        if cut < 0:
            raise GraffitoError(f"term {part!r} is not scalar*system")
        ctext = part[:cut].strip()
        if ctext.startswith("(") and ctext.endswith(")"):
            ctext = ctext[1:-1]
        g = parse_graffito(part[cut + 1:])
        v = dom.parse(ctext)
        terms[g] = dom.add(terms.get(g, dom.zero()), v)
    return Chain(ring, terms)


def loop_count(x: Graffito) -> int:
    """Number of loops in the system (open ends are closed up first)."""
    factors = close_ends(x).factors
    running, total = factors[0], 0
    for f in factors[1:]:
        running, loops = compose(running, f)
        total += loops
    return total


def divider_count(x: Graffito) -> int:
    """Inner factors the whole system passes by: those with no through strand."""
    return sum(1 for f in x.factors[1:-1] if f.through_count() == 0)


def nondivider_count(x: Graffito) -> int:
    return x.degree - 1 - divider_count(x)


def close_ends(x: Graffito) -> Graffito:
    """Join the hanging strand pair at each open end."""
    if x.is_empty_system or not (x.left_open or x.right_open):
        return x
    factors = list(x.factors)
    if x.left_open:
        factors[0] = close_up(LinkState(factors[0], RIGHT_CELL)).diagram
    if x.right_open:
        factors[-1] = close_up(LinkState(factors[-1], LEFT_CELL)).diagram
    return Graffito(x.two_n, False, False, tuple(factors))


# ---------------------------------------------------------------------------
# Chains
# ---------------------------------------------------------------------------

class Chain(LinearCombination):
    """A finite linear combination of loop systems of one degree and shape."""

    __slots__ = ()
    ring_error = GraffitoError

    def __init__(self, ring: PointedRing, terms: dict[Graffito, object] | None = None):
        super().__init__(ring, terms)
        shapes = {(g.degree, g.left_open, g.right_open, g.two_n) for g in self.terms}
        if len(shapes) > 1:
            raise GraffitoError("chain mixes degrees or end shapes")

    @staticmethod
    def key_product(x: Graffito, y: Graffito) -> Graffito:
        return product(x, y)

    @classmethod
    def of(cls, ring: PointedRing, x: Graffito, coeff=None) -> "Chain":
        return cls(ring, {x: ring.domain.one() if coeff is None else coeff})

    @property
    def degree(self) -> int | None:
        for g in self.terms:
            return g.degree
        return None

    def encode(self) -> str:
        if not self.terms:
            return "0"
        dom = self.ring.domain
        parts = []
        for g in sorted(self.terms, key=Graffito.encode):
            c = dom.format(self.terms[g])
            if any(ch in c[1:] for ch in "+-") or " " in c:
                c = f"({c})"
            parts.append(f"{c}*{g.encode()}")
        return " + ".join(parts)


def face(x: Graffito, i: int, ring: PointedRing) -> Chain:
    """Delete bar i (0-based): compose factors i and i+1 into one.

    Every loop that stops meeting a bar contributes one factor of the marked
    element a to the coefficient.  At an open end the composite may acquire a
    stub-to-stub connection; the cell quotient makes such a term zero.  The
    i = 0 deletion of a one-bar closed system is the merge to the empty
    system, the augmentation of an augmented complex.
    """
    p = x.degree
    if not 0 <= i <= p - 1:
        raise IndexError(f"face index {i} out of range for degree {p}")
    if p == 1:
        if x.left_open or x.right_open:
            raise IndexError("one-bar open systems have no face")
        _, loops = compose(x.factors[0], x.factors[1])
        coeff = ring.a_power(loops)
        return Chain(ring, {empty_system(x.two_n): coeff})
    merged, loops = compose(x.factors[i], x.factors[i + 1])
    if x.left_open and i == 0 and merged.has_ll_pair():
        return Chain(ring)
    if x.right_open and i == p - 1 and merged.has_rr_pair():
        return Chain(ring)
    factors = x.factors[:i] + (merged,) + x.factors[i + 2:]
    out = Graffito(x.two_n, x.left_open, x.right_open, factors)
    return Chain(ring, {out: ring.a_power(loops)})


def differential(c: Chain) -> Chain:
    """Alternating sum of bar deletions, the 0th deletion with positive sign."""
    ring = c.ring
    dom = ring.domain
    out: dict[Graffito, object] = {}
    for g, v in c.terms.items():
        for i in range(g.degree):
            if g.degree == 1 and (g.left_open or g.right_open):
                continue
            f = face(g, i, ring)
            for h, w in f.terms.items():
                w = dom.mul(v, w)
                if i % 2:
                    w = dom.neg(w)
                out[h] = dom.add(out.get(h, dom.zero()), w)
    return Chain(ring, out)


def product(x: Graffito, y: Graffito) -> Graffito:
    """Juxtapose two systems; the facing cell states merge into one factor.

    The leaving state of x and the entering state of y sit together between
    two bars, so they combine (by the unique planar rejoining) into a single
    through-strand-free inner factor.  Degrees, weights and loop counts add;
    the divider count gains one for the new joint.
    """
    if x.is_empty_system:
        return y
    if y.is_empty_system:
        return x
    if x.two_n != y.two_n:
        raise GraffitoError("systems of different heights")
    if x.right_open or y.left_open:
        raise GraffitoError("facing ends must be closed to juxtapose")
    joint, loops = compose(x.factors[-1], y.factors[0])
    if loops:
        raise GraffitoError("juxtaposition cannot close loops")
    factors = x.factors[:-1] + (joint,) + y.factors[1:]
    return Graffito(x.two_n, x.left_open, y.right_open, factors)


def involution_tb(x: Graffito) -> Graffito:
    """Top-to-bottom reflection of every factor in place."""
    if x.is_empty_system:
        return x
    return Graffito(x.two_n, x.left_open, x.right_open,
                    tuple(f.reflect_tb() for f in x.factors))


def involution_lr(x: Graffito) -> Graffito:
    """Left-to-right reflection: reverse the factors and reflect each."""
    if x.is_empty_system:
        return x
    return Graffito(x.two_n, x.right_open, x.left_open,
                    tuple(f.reflect_lr() for f in reversed(x.factors)))


def chain_involution_tb(c: Chain) -> Chain:
    return Chain(c.ring, {involution_tb(g): v for g, v in c.terms.items()})


def chain_involution_lr(c: Chain) -> Chain:
    return Chain(c.ring, {involution_lr(g): v for g, v in c.terms.items()})


# ---------------------------------------------------------------------------
# Words and pivots (2n = 4)
# ---------------------------------------------------------------------------

def to_word(x: Graffito) -> tuple[Letter, ...]:
    """The letter on each bar: arcs arriving from the left, leaving right."""
    if x.two_n != 4:
        raise GraffitoError("letters are defined for 2n = 4")
    if x.is_empty_system:
        return ()
    p = x.degree
    letters = []
    for j in range(1, p + 1):
        prev = x.factors[j - 1]
        left = prev if j == 1 else slice_diagram(prev)[1].diagram
        nxt = x.factors[j]
        right = nxt if j == p else slice_diagram(nxt)[0].diagram
        letters.append(Letter(left, right))
    return tuple(letters)


def from_word(letters, two_n: int = 4) -> Graffito:
    """Rebuild the system whose bars carry the given letters."""
    letters = tuple(letters)
    if not letters:
        raise GraffitoError("a word has at least one letter")
    p = len(letters)
    for a, b in zip(letters, letters[1:]):
        if a.kr != b.kl:
            raise GraffitoError(
                f"stub counts disagree between consecutive letters ({a.kr} vs {b.kl})")
    factors = [letters[0].left]
    for j in range(p - 1):
        factors.append(unslice(LinkState(letters[j].right, LEFT_CELL),
                               LinkState(letters[j + 1].left, RIGHT_CELL)))
    factors.append(letters[-1].right)
    return Graffito(two_n, letters[0].kl == 2, letters[-1].kr == 2,
                    tuple(factors))


def _loop_ids(x: Graffito) -> list[dict[int, int]]:
    """For each bar, the loop id at each of its four nodes (1..4)."""
    p = x.degree
    parent: dict = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for k, f in enumerate(x.factors):
        for a, b in f.pairs:
            va = (k, a[1]) if a[0] == "L" else (k + 1, a[1])
            vb = (k, b[1]) if b[0] == "L" else (k + 1, b[1])
            union(va, vb)
    return [{node: find((bar, node)) for node in range(1, x.two_n + 1)}
            for bar in range(1, p + 1)]


def pivot_sequence(x: Graffito) -> tuple[Letter, ...]:
    """The letters, in order, at bars met by two distinct loops.

    Defined for closed systems with no dividers; such a system with w loops
    has exactly w - 1 of these letters.
    """
    if x.left_open or x.right_open:
        raise GraffitoError("pivots are read off closed systems")
    if divider_count(x):
        raise GraffitoError("pivots are defined for divider-free systems")
    ids = _loop_ids(x)
    return tuple(letter for letter, at in zip(to_word(x), ids)
                 if len(set(at.values())) >= 2)


def pivot_letters(max_degree: int = 4) -> tuple[Letter, ...]:
    """Letters met by two loops, collected from two-loop divider-free systems."""
    seen = set()
    for p in range(1, max_degree + 1):
        for x in enumerate_graffiti(p, weight=2, dividers=0):
            seen.update(pivot_sequence(x))
    return tuple(sorted(seen, key=Letter.encode))


# ---------------------------------------------------------------------------
# Complex assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexSpec:
    """Which loop complex to build, over which ring, with which filters.

    weight fixes the number of loops, dividers the divider count; the
    subquotient flag keeps only divider-preserving bar deletions (deletions
    that raise the count leave the subquotient and are dropped; none lower
    it).  Both filters need a = 0, where the differential cannot unpin loops.
    """

    two_n: int
    ring: PointedRing
    ends: EndSpec = CLOSED
    max_degree: int = 4
    weight: int | None = None
    dividers: int | None = None
    subquotient: bool = False

    def __post_init__(self):
        _check_shape(self.two_n, self.ends)
        if self.max_degree < 0:
            raise GraffitoError("max_degree must not be negative")
        if self.subquotient != (self.dividers is not None):
            raise GraffitoError(
                "a divider filter and the subquotient flag go together")
        if (self.weight is not None or self.dividers is not None):
            if not self.ring.a_is_zero:
                raise GraffitoError("weight and divider filters need a = 0")
            if self.ends.augmented:
                raise GraffitoError("filtered complexes are not augmented")

    @property
    def label(self) -> str:
        """The built complex's description, as loops(2n=4, ends=cc, w=2)."""
        tags = [f"2n={self.two_n}", f"ends={self.ends.code}"] + ["augmented"] * self.ends.augmented
        tags += [f"{k}={v}" for k, v in (("w", self.weight), ("j", self.dividers)) if v is not None]
        return f"loops({', '.join(tags)})"


def _check_shape(two_n: int, ends: EndSpec, degree: int = 0) -> None:
    """Refuse a height, an end shape or a degree no loop complex has."""
    if degree < 0:
        raise GraffitoError("degree must not be negative")
    if two_n % 2 or two_n <= 0:
        raise GraffitoError("two_n must be a positive even integer")
    if (ends.left_open or ends.right_open) and two_n != 4:
        raise GraffitoError("open ends are only defined for 2n = 4")


def _unaugmented(ends: EndSpec | str) -> EndSpec:
    """The ends whose machine a listing or a build reads: augmentation keeps
    the slot pools of the closed ends, so it is dropped, and a code is read."""
    if isinstance(ends, str):
        return EndSpec.from_code(ends)
    return EndSpec(ends.left_open, ends.right_open)


def _slot_pools(two_n: int, ends: EndSpec):
    kl = 2 if ends.left_open else 0
    kr = 2 if ends.right_open else 0
    first = tuple(s.diagram for s in cell_basis(two_n, kl, RIGHT_CELL))
    inner = tuple(d for d in enumerate_diagrams(two_n, two_n)
                  if not d.is_identity())
    last = tuple(s.diagram for s in cell_basis(two_n, kr, LEFT_CELL))
    return first, inner, last


def enumerate_graffiti(degree: int, two_n: int = 4, ends: EndSpec | str = CLOSED,
                       weight: int | None = None, dividers: int | None = None
                       ) -> tuple[Graffito, ...]:
    """All degree-p basis systems passing the filters, canonical order."""
    ends = _unaugmented(ends)
    _check_shape(two_n, ends, degree)
    words, _ = _raw_words(degree, two_n, ends, weight, dividers)
    m = _machine(two_n, ends)
    out = []
    for w in words:
        ids = _slot_ids(w, degree + 1, m.bits)
        factors = ((m.first[ids[0]],)
                   + tuple(m.inner[i] for i in ids[1:-1])
                   + (m.last[ids[-1]],))
        out.append(Graffito(two_n, ends.left_open, ends.right_open, factors))
    return tuple(out)


class _Machine(NamedTuple):
    first: tuple[TLDiagram, ...]
    inner: tuple[TLDiagram, ...]
    last: tuple[TLDiagram, ...]
    bits: int                              # width of one packed slot id
    start: list[int]                       # first id -> state
    step: list[list[tuple[int, int]]]      # [state][inner id] -> (state, loops)
    finish: list[list[int]]                # [state][last id] -> loops
    is_div: tuple[bool, ...]               # inner id -> has no through strand
    first_index: dict[TLDiagram, int]      # diagram -> id, per pool
    inner_index: dict[TLDiagram, int]
    last_index: dict[TLDiagram, int]
    enc_first: tuple[str, ...]
    enc_inner: tuple[str, ...]
    enc_last: tuple[str, ...]


@lru_cache(maxsize=None)
def _machine(two_n: int, ends: EndSpec) -> _Machine:
    """Slot pools plus the closed-composite transition tables, id-indexed.

    A word (first_id, inner_id..., last_id) is packed into one int: each
    slot id fills a field `bits` wide, the first slot most significant, so
    words of one length sort numerically in slot order.  The running state
    while scanning left to right is the composite of the closed-up prefix,
    an element of the (0, 2n) diagram list, plus the loops already closed;
    transitions are glued and looked up on partner arrays.
    """
    first, inner, last = _slot_pools(two_n, ends)
    states = [d.partners for d in enumerate_diagrams(0, two_n)]
    sid = {a: k for k, a in enumerate(states)}
    start = [sid[(close_up(LinkState(f, RIGHT_CELL)).diagram if ends.left_open
                  else f).partners] for f in first]
    closed_last = [(close_up(LinkState(f, LEFT_CELL)).diagram if ends.right_open
                    else f).partners for f in last]
    step = [[(sid[res], loops) for res, loops in
             (glue(s, d.partners, two_n) for d in inner)] for s in states]
    finish = [[glue(s, d, two_n)[1] for d in closed_last] for s in states]
    bits = max(1, (max(len(first), len(inner), len(last)) - 1).bit_length())
    return _Machine(first, inner, last, bits, start, step, finish,
                    tuple(d.through_count() == 0 for d in inner),
                    *({d: j for j, d in enumerate(pool)}
                      for pool in (first, inner, last)),
                    tuple(d.encode() for d in first),
                    tuple(d.encode() for d in inner),
                    tuple(d.encode() for d in last))


@lru_cache(maxsize=None)
def _completions(two_n: int, ends: EndSpec, r: int) -> tuple[dict, ...]:
    """Per state, {(loops, dividers): count} over the ways to finish a word
    from that state with r more inner slots and a last slot."""
    m = _machine(two_n, ends)
    out = []
    if r == 0:
        for row in m.finish:
            tally: dict[tuple[int, int], int] = {}
            for loops in row:
                tally[loops, 0] = tally.get((loops, 0), 0) + 1
            out.append(tally)
        return tuple(out)
    rest = _completions(two_n, ends, r - 1)
    for row in m.step:
        tally = {}
        for (ns, dl), dd in zip(row, m.is_div):
            for (loops, divs), n in rest[ns].items():
                key = (loops + dl, divs + dd)
                tally[key] = tally.get(key, 0) + n
        out.append(tally)
    return tuple(out)


def _passing(tally: dict, loops: int | None, divs: int | None) -> int:
    """How many ways a tally {(loops, dividers): count} of _completions
    holds that meet the filters, None where no filter applies."""
    return sum(n for (k, j), n in tally.items()
               if loops in (None, k) and divs in (None, j))


def _slot_ids(word: int, length: int, bits: int) -> tuple[int, ...]:
    """The slot ids of a packed word of `length` slots, first slot first."""
    mask = (1 << bits) - 1
    return tuple((word >> (bits * k)) & mask for k in range(length - 1, -1, -1))


def _encodings(words, degree: int, m: _Machine, ends_code: str) -> tuple[str, ...]:
    """The canonical string of each packed word of one degree."""
    bits, top = m.bits, degree * m.bits
    mask = (1 << bits) - 1
    inner_shifts = range(top - bits, 0, -bits)
    enc_first, enc_inner, enc_last = m.enc_first, m.enc_inner, m.enc_last
    head = f"G({ends_code})["
    return tuple(head + " | ".join([enc_first[w >> top],
                                    *[enc_inner[(w >> s) & mask]
                                      for s in inner_shifts],
                                    enc_last[w & mask]]) + "]"
                 for w in words)


class _Spelling(NamedTuple):
    """Spells the packed words of one degree of a loop complex, given its
    height and its (unaugmented) ends; word 0 of degree 0 is the empty
    system."""

    two_n: int
    ends: EndSpec
    degree: int

    def __call__(self, words) -> tuple[str, ...]:
        if self.degree == 0:
            return (empty_system(self.two_n).encode(),) * len(words)
        return _encodings(words, self.degree, _machine(self.two_n, self.ends),
                          self.ends.code)


def _packed_word(x: Graffito) -> int:
    """The packed word of a system, read off its factors through the slot
    pools of its machine; the empty system is word 0."""
    if x.is_empty_system:
        return 0
    m = _machine(x.two_n, x.ends)
    word = m.first_index[x.factors[0]]
    for f in x.factors[1:-1]:
        word = word << m.bits | m.inner_index[f]
    return word << m.bits | m.last_index[x.factors[-1]]


def _raw_words(degree, two_n, ends, weight, dividers):
    """Basis words passing the filters, packed, in canonical order, and their
    loop counts.

    Returns two parallel lists: the packed words, and the loop count of
    each.  Each slot pool (first, inner, last) is in encoding order, and
    every diagram encoding ends in its only '}', so no encoding is a proper
    prefix of another.  String order of 'G(..)[a | b | ...]' is therefore
    the lexicographic order of the slot ids, and the numeric order of the
    packed words.  The words are walked over the class tree of the filters
    (_ClassTree.words), as a build walks its own tree.
    """
    if degree < 1:
        return [], []
    return _ClassTree(two_n, ends, degree, weight, dividers).words(degree)


class _ClassTree:
    """Which tails may follow each class of word prefix, under the filters.

    The complex is a normalized bar construction, so this depends only on
    the prefix's class: (state, loops still needed, dividers still needed),
    None where no filter applies, state -1 once finished, None for the
    empty prefix.  The tails from c with r inner slots finish a prefix of
    class c with r inner slots and a last slot (from None: the degree-r
    words).  size counts them from _completions, span lays them out by
    their first slot; the walk (words) and the templates (_Tails) read both.
    """

    def __init__(self, two_n, ends, top_degree, weight, dividers):
        self.m = _machine(two_n, ends)
        self.completions = [_completions(two_n, ends, r) for r in range(top_degree)]
        self.root, self.top_degree = (weight, dividers), top_degree
        self.sizes, self.spans = {}, {}

    def size(self, c, r) -> int:
        """How many tails from c with r inner slots (r = -1: c finished)."""
        if (c, r) not in self.sizes:
            s, loops, divs = c
            self.sizes[c, r] = _passing({(0, 0): 1} if r < 0 else self.completions[r][s],
                                        loops, divs)
        return self.sizes[c, r]

    def span(self, c, r):
        """{slot: (offset, class after, loops closed)} over the slots that
        start a tail from c with r inner slots, and the number of tails."""
        if (c, r) not in self.spans:
            m, out, total = self.m, {}, 0
            for t in range(len(m.first if c is None else m.inner if r else m.last)):
                if c is None:
                    after, k = (m.start[t], *self.root), 0
                else:
                    s, loops, divs = c
                    s, k = m.step[s][t] if r else (-1, m.finish[s][t])
                    after = (s, None if loops is None else loops - k,
                             divs - m.is_div[t] if r and divs is not None else divs)
                if n := self.size(after, r - 1):
                    out[t] = total, after, k
                    total += n
            self.spans[c, r] = out, total
        return self.spans[c, r]

    def words(self, p):
        """The degree-p words, packed and ascending, and the loops each
        closes (see _raw_words).  A class's tails are tabulated once per
        call; the blocks under each first slot go straight into the output,
        so the largest table kept has p - 2 inner slots."""
        words, loops, tables = [], [], {}
        for t, (_, c, _) in self.span(None, p)[0].items():
            self._extend(words, loops, t, c, p - 1, tables)
        return words, loops if self.root[0] is None else [self.root[0]] * len(words)

    def _extend(self, ws, ls, head, c, r, tables) -> None:
        """Append head.t to ws for each tail t from c with r inner slots,
        ascending, and the loops t closes to ls unless a weight filter
        fixes them: for each slot of the span, the table of the class after
        it (tables, per class and r), shifted under the slot by one map."""
        carry, bits = self.root[0] is None, self.m.bits
        if r < 0:  # the empty tail of a finished class
            ws.append(head)
            if carry:
                ls.append(0)
            return
        shift = r * bits
        for t, (_, after, k) in self.span(c, r)[0].items():
            if (key := (after, r - 1)) not in tables:
                tables[key] = [], []
                self._extend(*tables[key], 0, after, r - 1, tables)
            tw, tl = tables[key]
            ws.extend(map(((head << bits | t) << shift).__or__, tw))
            if carry:
                ls.extend(map(k.__add__, tl) if k else tl)


def count_graffiti(degree: int, two_n: int = 4, ends: EndSpec | str = CLOSED,
                   weight: int | None = None, dividers: int | None = None) -> int:
    """Number of degree-p basis systems passing the filters, counted over
    (state, loops, dividers) without listing any."""
    ends = _unaugmented(ends)
    _check_shape(two_n, ends, degree)
    if degree < 1:
        return 0
    tails = _completions(two_n, ends, degree - 1)
    return sum(_passing(tails[s], weight, dividers)
               for s in _machine(two_n, ends).start)


@lru_cache(maxsize=None)
def _merge_table(two_n: int, ends: EndSpec, kind: str) -> tuple:
    """One kind of bar deletion in id space, glued on partner arrays once
    per machine: at index (x_id << bits) | y_id, the merged id and the loops
    closed, or None for a cell-quotient kill.  The kind names the slots
    joined: "one" first and last (the augmentation, onto word 0), "first"
    first and inner, "last" inner and last, "inner" two inner slots.  A
    product missing from the target pool must be a kill: two left ends
    paired at an open left end, or two right ends at an open right end."""
    m = _machine(two_n, ends)
    kl = 2 if ends.left_open else 0
    left, right, target, kill = {
        "one": (m.first, m.last, None, None),
        "first": (m.first, m.inner, m.first, lambda res: any(p < kl for p in res[:kl])),
        "last": (m.inner, m.last, m.last, lambda res: any(p >= two_n for p in res[two_n:])),
        "inner": (m.inner, m.inner, m.inner, None),
    }[kind]
    # "one" sends every product onto word 0
    lookup = {d.partners: j for j, d in enumerate(target)}.get if target else lambda res: 0
    table = [None] * (1 << 2 * m.bits)
    for a, x in enumerate(left):
        for b, y in enumerate(right):
            res, loops = glue(x.partners, y.partners, two_n)
            if (merged := lookup(res)) is not None:
                table[(a << m.bits) | b] = merged, loops
            elif not (kill and kill(res)):
                raise GraffitoError(f"the {kind} merge of {x} and {y} leaves the "
                                    f"slot pool and is no cell-quotient kill")
    return tuple(table)


class _Assembly(NamedTuple):
    """A loop complex as assembled at a pointed ring (R, a): per degree its
    packed words, their loop counts, and its boundary matrix over R, each
    entry a sum of sign * a^(loops closed).  Z[a] is assembled at (Z, 1),
    so its entries are the integers n of n * a^(w_col - w_row)."""

    words: dict[int, array]
    weights: dict[int, tuple[int, ...]]
    matrices: dict[int, SparseMatrix]


class _Opposites(dict):
    """v -> -v in one domain, by its neg, each computed once."""
    def __missing__(self, v):
        self[v] = w = self.neg(v)
        return w


class _Runs(dict):
    """n -> (v,) * n, each made once: the values of every row of length n
    when each stored entry is v."""
    def __init__(self, v):
        super().__init__()
        self.v = v

    def __missing__(self, n):
        self[n] = vs = (self.v,) * n
        return vs


class _Tails(_ClassTree):
    """A build's class tree, with templates of the deletions inside word
    tails, one per class of prefix, and the boundaries written from them
    (see _assemble).  A template is the list of rows that rows() yields,
    each a pair of tuples as the matrices store them.  runs, unless None,
    holds the one value tuple per row length that every row takes; ints
    are the build's shared ints, as many as the largest degree has words.
    A divider filter is subquotient mode (see ComplexSpec).
    """

    def __init__(self, two_n, ends, top_degree, weight, dividers, tables,
                 values, dom, runs):
        super().__init__(two_n, ends, top_degree, weight, dividers)
        self.tables, self.runs = tables, runs
        self.signed = (values[-1], values[1])  # sign (-1)^(r-1), by r % 2
        self.add, self.opposite = dom.add, _Opposites()
        self.opposite.neg = dom.neg
        self.templates = {}
        self.ints = list(range(max((self.span(None, p)[1]
                                    for p in range(1, top_degree + 1)), default=0)))

    def template(self, c, r) -> list:
        if (c, r) not in self.templates:
            self.templates[c, r] = list(self.rows(c, r))
        return self.templates[c, r]

    def rows(self, c, r, negate=False, extra=(), base=0):
        """Yield the columns and the values of each row of E(c, r), the
        deletions inside the tails from c with r inner slots into those with
        r - 1 (d_r at c = None), as the tuples a matrix stores, the values
        negated if asked; with runs the values are the shared tuple of the
        row's length.

        The head deletion merges slots t1, t2 into u with sign (-1)^(r-1):
        signs count from the tail's end.  Row k of the rows starting with u
        is row k of E(c.u, r - 1) shifted into the columns starting with u,
        plus a diagonal run per head merge into u.  Each row is written
        once, as one list: the heads' columns before u's block, the shifted
        template row, the heads' columns after it.  A head with t1 = u lands
        inside the block; it is bisected into the template row as stored,
        last head first, so that every earlier output index stays valid,
        and inserted, added to the entry it meets, or cancels that entry
        (always, with runs, where v + v = 0).  Without runs the values list
        takes the same edits; when negated, the heads are negated once per
        block and the template values as they are copied.

        extra holds more diagonal runs (offset, values) over all the rows,
        and base is added to every column.  d_top keeps no template that
        only one of its blocks reads: it yields rows(c.u, r - 1) with the
        block's heads as extra and the block's first column as base, so
        each of those rows is built once.
        """
        m, ints, add, runs = self.m, self.ints, self.add, self.runs
        cols_at, _ = self.span(c, r)
        rows_at, _ = self.span(c, r - 1)
        kind = "first" if c is None else "inner" if r > 1 else "last"
        table, signed = self.tables[kind], self.signed[r % 2]
        sq = self.root[1] is not None and kind == "inner"
        heads = {u: [(d + o, v) for d, v in extra] for u, (o, _, _) in rows_at.items()}
        for t1, (o1, c1, k1) in cols_at.items():
            for t2, (o2, c2, k2) in self.span(c1, r - 1)[0].items():
                hit = table[t1 << m.bits | t2]
                if hit is None or (v := signed[hit[1]]) is None:
                    continue
                u, k = hit
                if sq and m.is_div[u] != m.is_div[t1] + m.is_div[t2]:
                    continue
                if u not in rows_at or rows_at[u][1] != c2:
                    raise GraffitoError(f"{kind} merge {t1}.{t2} = {u} after {c} "
                                        f"hits no basis word")
                if (diff := k1 + k2 - rows_at[u][2]) != k:
                    raise GraffitoError(f"{kind} merge {t1}.{t2} = {u} closes {k} "
                                        f"loops, but the weights differ by {diff}")
                heads[u].append((o1 + o2, v))
        shared = Counter(cu for _, cu, _ in rows_at.values())
        for u, (_, cu, _) in rows_at.items():
            n, lo, hi = self.size(cu, r - 2), 0, 0  # u's columns: lo to hi
            hs = sorted(heads[u])
            if extra:  # own heads lie in distinct column blocks
                hs = _merge_heads(hs, add, self.opposite)
            sub = repeat(((), ()), n)
            if r > 1 and u in cols_at:
                lo = cols_at[u][0]
                hi = lo + self.size(cu, r - 1)
                if c is None and r == self.top_degree and shared[cu] == 1:
                    yield from self.rows(cu, r - 1, negate,
                                         [(b - lo, v) for b, v in hs], base + lo)
                    continue
                sub = self.template(cu, r - 1)
            parts = [h for h in hs if h[0] < lo], [h for h in hs if h[0] >= hi]
            diag = [zip(*[ints[base + b:base + b + n] for b, _ in part]) if part
                    else repeat((), n) for part in parts]
            before, after = (tuple(v for _, (v, _) in part) for part in parts)
            inside = [(b - lo, v) for b, v in reversed(hs) if lo <= b < hi]
            at = len(before)  # output index of the template row's first entry
            shift, opposite = ints[base + lo:base + hi].__getitem__, self.opposite.__getitem__
            if negate and runs is None:  # each value negated once, as it is copied
                before, after = tuple(map(opposite, before)), tuple(map(opposite, after))
                inside = [(b, (opp, v)) for b, (v, opp) in inside]
            for k, cb, (sc, sv), ca in zip(count(), diag[0], sub, diag[1]):
                # through lists: a tuple of known length reuses the tuples
                # freed by earlier builds, which tuple(iterator) never does
                cs = [*cb, *map(shift, sc), *ca]
                if runs is None:
                    vs = [*before, *(map(opposite, sv) if negate else sv), *after]
                    for b, (v, opp) in inside:
                        i = bisect_left(sc, b + k)
                        if i == len(sc) or sc[i] != b + k:
                            cs.insert(at + i, shift(b + k))
                            vs.insert(at + i, v)
                        elif vs[at + i] == opp:  # the entry cancels
                            del cs[at + i], vs[at + i]
                        else:
                            vs[at + i] = add(vs[at + i], v)
                    yield tuple(cs), tuple(vs)
                else:
                    for b, _ in inside:
                        i = bisect_left(sc, b + k)
                        if i == len(sc) or sc[i] != b + k:
                            cs.insert(at + i, shift(b + k))
                        else:  # v + v = 0
                            del cs[at + i]
                    yield tuple(cs), runs[len(cs)]


def _merge_heads(hs, add, opposite) -> list:
    """Sorted heads (offset, (v, -v)) with the runs at one offset summed,
    and a pair that cancels dropped; opposite maps a sum to its negative."""
    out = []
    for b, (v, opp) in hs:
        if out and out[-1][0] == b:
            w, w_opp = out.pop()[1]
            if v != w_opp:
                total = add(w, v)
                out.append((b, (total, opposite[total])))
        else:
            out.append((b, (v, opp)))
    return out


def _assemble(two_n: int, ends: EndSpec, max_degree: int, weight: int | None,
              dividers: int | None, ring: PointedRing) -> _Assembly:
    """The words, weight labels and boundary matrices of a loop complex,
    with every entry written in the domain of ring.

    A deletion with sign s that closes k loops writes s * a^k, read with
    its opposite from values[s][k], made once per build for every k a
    merge closes; a deletion whose value vanishes (None there: k > 0 at
    a = 0) is skipped, as under a divider filter (subquotient mode) is
    every inner merge that changes the divider count.

    One class tree per build (_Tails) lays out the classes' sizes and
    spans once; every degree's words are walked over it, and each boundary
    is written from its tail templates, memoised per (class, inner slots
    left).  An entry that cancels is removed; a top-degree block whose
    template no other block reads hands its heads to the level below and
    keeps none.  _Tails.rows yields every row in its stored form, each
    written once, straight into SparseMatrix.from_rows, which checks each
    one.  Each merge is checked once: the class after the merged pair must
    be the class after its target (else the deletion hits no basis word),
    and the loops it closes the machine's loop difference (else the
    weights differ).  Each degree's walk must be packed and ordered as the
    spans it read: as many words, each first slot's block where it starts.

    Storage: each degree's packed words go into one array('Q') as soon as
    the walk returns them, and the walk's lists are dropped.  Refused
    before any walk: a word of max_degree + 1 slots wider than 64 bits, and
    a build estimated past MAX_BLOCK_BYTES (_estimated_bytes).  Each
    column and each row id is one of the build's shared ints.  When the
    value table holds one nonzero v with v + v = 0 (F2, at any a), every
    entry a sum of them leaves is v, so every row of length n stores the
    one tuple (v,) * n made for this build, and no value is read.

    The machine, walks and merge tables are those of the ends without
    augmentation, which has the same slot pools, so an augmented build
    reuses the closed tables and adds only word 0 and the "one" deletion.
    """
    base = _unaugmented(ends)
    m = _machine(two_n, base)
    dom = ring.domain
    if (width := m.bits * (max_degree + 1)) > 64:
        raise GraffitoError(f"a degree-{max_degree} word at 2n = {two_n} packs "
                            f"{max_degree + 1} slots of {m.bits} bits, {width} "
                            f"bits in all: past the 64 of a stored word")
    _estimated_bytes(two_n, base, max_degree, weight, dividers)

    kinds = ["one"] * (ends.augmented and max_degree > 0)
    kinds += ["first", "last"] * (max_degree > 1) + ["inner"] * (max_degree > 2)
    tables = {kind: _merge_table(two_n, base, kind) for kind in kinds}
    top = max((hit[1] for table in tables.values() for hit in table if hit),
              default=0)
    values = {s: [None if dom.is_zero(v := dom.mul(dom.from_int(s), ring.a_power(k)))
                  else (v, dom.neg(v)) for k in range(top + 1)]
              for s in (1, -1)}
    # one nonzero value v with v + v = 0 (F2, at any a): every sum of
    # entries is v or cancels, so the rows store shared runs of v
    nonzero = {v for table in values.values() for pair in table if pair for v in pair}
    runs = None
    if len(nonzero) == 1:
        (v,) = nonzero
        if dom.is_zero(dom.add(v, v)):
            runs = _Runs(v)
    tails = _Tails(two_n, base, max_degree, weight, dividers, tables, values,
                   dom, runs)

    # the empty system is word 0 of degree 0
    words: dict[int, array] = {0: array("Q", [0] * ends.augmented)}
    weights: dict[int, tuple[int, ...]] = {0: (0,) * ends.augmented}
    for p in range(1, max_degree + 1):
        walk = tails.words(p)
        words[p], weights[p] = array("Q", walk[0]), tuple(walk[1])
        del walk  # else the top degree's lists outlive the walk
        firsts, total = tails.span(None, p)
        if total != len(words[p]) or any(o != bisect_left(words[p], f << p * m.bits)
                                         for f, (o, _, _) in firsts.items()):
            raise GraffitoError(f"the degree-{p} basis is not the tails counted, "
                                f"so a deletion hits no basis word")
    ints = tails.ints
    one = []  # d_1: the augmentation, if any
    for col, w in zip(ints, words[1] if ends.augmented and max_degree else ()):
        if (k := tables["one"][w][1]) != weights[1][col]:
            raise GraffitoError(f"the one merge of word {col} closes {k} loops, "
                                f"but the weights differ by {weights[1][col]}")
        if values[1][k]:
            one.append((col, values[1][k][0]))
    if one:
        cs, vs = zip(*one)
        one = [(0, cs, vs if runs is None else runs[len(cs)])]
    matrices = ({1: SparseMatrix.from_rows(len(words[0]), len(words[1]), one, dom)}
                if max_degree else {})
    for p in range(2, max_degree + 1):
        rows = tails.rows(None, p, negate=p % 2 == 0)
        matrices[p] = SparseMatrix.from_rows(
            len(words[p - 1]), len(words[p]),
            ((i, cs, vs) for i, (cs, vs) in zip(ints, rows) if cs), dom)
    return _Assembly(words, weights, matrices)


def build_complex(spec: ComplexSpec) -> ChainComplexData:
    """Bases and boundary matrices of the requested complex, degrees 0..max.

    The basis in each degree keeps the packed words in canonical order, as
    the enumeration emits them, and spells them only when it is read (see
    Basis); each word's weight label is the loop count the enumeration
    computed.  Bar deletions whose coefficient vanishes, whose target leaves
    an open-end cell module, or (in subquotient mode) whose target gains a
    divider contribute nothing; every other deletion's target is in the
    basis, and GraffitoError names one that is not.

    The words, labels and matrices come from _assemble and are stored as
    they are, over every ring: each entry is a sum of sign * a^(loops
    closed) in the ring, and Z[a] is assembled at (Z, 1), whose entries are
    the integers n of n * a^(w_col - w_row) that ChainComplexData keeps.
    """
    ends, ring = spec.ends, spec.ring
    at = PointedRing.make(ZZ, 1) if ring.domain.kind == INT_POLY_A else ring
    asm = _assemble(spec.two_n, ends, spec.max_degree, spec.weight,
                    spec.dividers, at)

    basis = {p: Basis(ws, _Spelling(spec.two_n, _unaugmented(ends), p))
             for p, ws in asm.words.items()}
    return ChainComplexData(ring, spec.max_degree, basis, asm.matrices,
                            weights=asm.weights, description=spec.label)


# Refuse a weight block estimated past this many bytes.  The estimates of the
# 2n = 4 degree-7 blocks reach 1.6 GB (0.77 GB built), of the 2n = 6 degree-4
# blocks 2.8 GB (1.74 GB built); 2n = 4 at degree 8 reaches 23 GB.
MAX_BLOCK_BYTES = 4_000_000_000
_ENTRY_BYTES = 50  # bound on a Z build's peak per stored entry, words included


def _estimated_bytes(two_n: int, ends: EndSpec, top: int, weight: int | None,
                     dividers: int | None) -> int:
    """The bytes a build through degree top is estimated to peak at, from
    count_graffiti: a degree-p word has p bar deletions, so p entries of
    _ENTRY_BYTES per word.  GraffitoError refuses an estimate past
    MAX_BLOCK_BYTES, naming the weight block, or the whole complex."""
    size = _ENTRY_BYTES * sum(p * count_graffiti(p, two_n, ends, weight, dividers)
                              for p in range(1, top + 1))
    if size > MAX_BLOCK_BYTES:
        name = "the whole complex" if weight is None else f"the weight-{weight} block"
        raise GraffitoError(f"{name} of 2n = {two_n} through degree {top} needs about "
                            f"{size / 1e9:.1f} GB by estimate, past the "
                            f"{MAX_BLOCK_BYTES / 1e9:.0f} GB one block may take")
    return size


def weight_blocks(spec: ComplexSpec) -> Iterator[ChainComplexData]:
    """The weight blocks of a loop complex at a = 0, each built when drawn:
    one per weight count_graffiti finds words of (one, if spec fixes it).

    GraffitoError refuses the request before any build if one block's
    estimate (_estimated_bytes) passes MAX_BLOCK_BYTES.  The generator
    binds no block, so one its caller lets go is freed before the next.
    """
    top, specs = spec.max_degree, []
    for w in range(spec.two_n // 2 * top + 1) if spec.weight is None else [spec.weight]:
        if _estimated_bytes(spec.two_n, spec.ends, top, w, spec.dividers):
            specs.append(replace(spec, weight=w))
    return (build_complex(s) for s in specs)


def chain_to_vector(c: Chain, data: ChainComplexData, degree: int) -> dict[int, object]:
    """Coordinates of a chain in the ordered basis of one degree.

    Each system's packed word is found by bisection among the basis keys,
    which ascend in canonical order (see _raw_words); a string is spelled
    only to name a system that is not there.
    """
    basis = data.basis.get(degree, Basis())
    keys = basis.keys
    out = {}
    for g, v in c.terms.items():
        if g.degree != degree:
            raise GraffitoError("chain degree disagrees with requested degree")
        found = basis.spell == _Spelling(g.two_n, g.ends, degree)
        if found:
            word = _packed_word(g)
            i = bisect_left(keys, word)
            found = i < len(keys) and keys[i] == word
        if not found:
            raise GraffitoError(f"{g.encode()} is not in the basis of degree {degree}")
        out[i] = v
    return out
