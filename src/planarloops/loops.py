"""Complexes of planar loops: loop systems pinned by bars, and their algebra.

A basis element (a pinned loop system) is a sequence of diagrams: a cell
state entering the first bar, square nonidentity diagrams between bars, and
a cell state leaving the last bar.  Bar deletion composes adjacent factors,
turning every loop that falls off the bars into a factor of the marked ring
element; the alternating sum of deletions is the differential.  Juxtaposing
pictures multiplies them.  The one-bar letters, the loop-count (weight) and
divider statistics, and the assembly of filtered subquotient complexes into
boundary-matrix data all live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, count
from typing import NamedTuple

from .coeff import INT_POLY_A, ZZ, LinearCombination, PointedRing
from .diagram import (EMPTY_DIAGRAM, LEFT_CELL, RIGHT_CELL, Letter,
                      LinkState, TLDiagram, cell_basis, close_up, compose,
                      enumerate_diagrams, slice_diagram, unslice)
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
    if factors == (EMPTY_DIAGRAM,):
        return empty_system()
    two_n = factors[0].m
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
        if g.degree == 0:
            continue
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
    out = []
    for bar in range(1, p + 1):
        out.append({node: find((bar, node)) for node in range(1, x.two_n + 1)})
    return out


def pivot_sequence(x: Graffito) -> tuple[Letter, ...]:
    """The letters, in order, at bars met by two distinct loops.

    Defined for closed systems with no dividers; such a system with w loops
    has exactly w - 1 of these letters.
    """
    if x.left_open or x.right_open:
        raise GraffitoError("pivots are read off closed systems")
    if divider_count(x):
        raise GraffitoError("pivots are defined for divider-free systems")
    word = to_word(x)
    ids = _loop_ids(x)
    out = []
    for j, letter in enumerate(word):
        if len(set(ids[j].values())) >= 2:
            out.append(letter)
    return tuple(out)


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


def _check_shape(two_n: int, ends: EndSpec, degree: int = 0) -> None:
    """Refuse a height, an end shape or a degree no loop complex has."""
    if degree < 0:
        raise GraffitoError("degree must not be negative")
    if two_n % 2 or two_n <= 0:
        raise GraffitoError("two_n must be a positive even integer")
    if (ends.left_open or ends.right_open) and two_n != 4:
        raise GraffitoError("open ends are only defined for 2n = 4")


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
    if isinstance(ends, str):
        ends = EndSpec.from_code(ends)
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
    an element of the (0, 2n) diagram list, plus the loops already closed.
    """
    first, inner, last = _slot_pools(two_n, ends)
    states = enumerate_diagrams(0, two_n)
    sid = {d: k for k, d in enumerate(states)}
    start = []
    for f in first:
        cf = close_up(LinkState(f, RIGHT_CELL)).diagram if ends.left_open else f
        start.append(sid[cf])
    closed_last = []
    for f in last:
        cf = close_up(LinkState(f, LEFT_CELL)).diagram if ends.right_open else f
        closed_last.append(cf)
    step = []
    for s in states:
        row = []
        for d in inner:
            res, loops = compose(s, d)
            row.append((sid[res], loops))
        step.append(row)
    finish = [[compose(s, d)[1] for d in closed_last] for s in states]
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
    packed words.

    The walk grows all prefixes of one length at a time.  The slots that
    may follow a prefix depend only on its class (state, loops, and
    dividers under a divider filter), so each level keeps its prefixes in
    canonical order beside their class ids, and extends each by its class's
    admissible slot ids, ascending, tabulated once per class.  The prefixes
    are in canonical order and each one's children in ascending slot id, so
    the next level is in canonical order too.  A slot is admissible when
    `_completions` says some way of finishing still meets the filters.
    """
    if degree < 1:
        return [], []
    m = _machine(two_n, ends)
    bits, step, finish, is_div = m.bits, m.step, m.finish, m.is_div
    wf, df = weight is not None, dividers is not None
    # per r and state, the (loops, dividers) that finishing can still add;
    # a coordinate without a filter is held at 0
    reach = [[{(loops if wf else 0, divs if df else 0) for loops, divs in t}
              for t in _completions(two_n, ends, r)] for r in range(degree)]
    # a class is (state, loops, dividers), its id the order it first
    # appears in on its level, which is also the order of `classes`
    classes: dict[tuple[int, int, int], int] = {}
    words = [f for f, s in enumerate(m.start)
             if (weight if wf else 0, dividers if df else 0) in reach[-1][s]]
    keys = [classes.setdefault((m.start[f], 0, 0), len(classes)) for f in words]
    for r in range(degree - 1, 0, -1):
        below, children = reach[r - 1], {}
        js, ks = [], []  # per class id: next slot ids, their class ids
        for s, loops, divs in classes:
            row_j, row_k = [], []
            for j, (ns, dl) in enumerate(step[s]):
                nl, nd = loops + dl, divs + is_div[j] if df else 0
                if (weight - nl if wf else 0, dividers - nd if df else 0) in below[ns]:
                    row_j.append(j)
                    row_k.append(children.setdefault((ns, nl, nd), len(children)))
            js.append(row_j)
            ks.append(row_k)
        words = [w << bits | j for w, k in zip(words, keys) for j in js[k]]
        keys = list(chain.from_iterable(map(ks.__getitem__, keys)))
        classes = children
    js, ls = [], []  # per class id: last slot ids, the finished word's loops
    for s, loops, _ in classes:
        js.append([j for j, dl in enumerate(finish[s])
                   if not wf or loops + dl == weight])
        ls.append([loops + finish[s][j] for j in js[-1]])
    out = [w << bits | j for w, k in zip(words, keys) for j in js[k]]
    return out, list(chain.from_iterable(map(ls.__getitem__, keys)))


def count_graffiti(degree: int, two_n: int = 4, ends: EndSpec | str = CLOSED,
                   weight: int | None = None, dividers: int | None = None) -> int:
    """Number of degree-p basis systems passing the filters, counted over
    (state, loops, dividers) without listing any."""
    if isinstance(ends, str):
        ends = EndSpec.from_code(ends)
    _check_shape(two_n, ends, degree)
    if degree < 1:
        return 0
    tails = _completions(two_n, ends, degree - 1)
    return sum(n for s in _machine(two_n, ends).start
               for (loops, divs), n in tails[s].items()
               if (weight is None or loops == weight)
               and (dividers is None or divs == dividers))


@lru_cache(maxsize=None)
def _merge_table(two_n: int, ends: EndSpec, kind: str) -> tuple:
    """One kind of bar deletion in id space, filled by compose once per
    machine: at index (x_id << bits) | y_id, the merged id and the loops
    closed, or None for a cell-quotient kill.  The kind names the slots
    joined: "one" first and last (the augmentation, onto word 0), "first"
    first and inner, "last" inner and last, "inner" two inner slots."""
    m = _machine(two_n, ends)
    left, right, merge = {
        "one": (m.first, m.last, lambda res: 0),
        "first": (m.first, m.inner, lambda res: None if ends.left_open
                  and res.has_ll_pair() else m.first_index[res]),
        "last": (m.inner, m.last, lambda res: None if ends.right_open
                 and res.has_rr_pair() else m.last_index[res]),
        "inner": (m.inner, m.inner, m.inner_index.__getitem__),
    }[kind]
    table = [None] * (1 << 2 * m.bits)
    for a, x in enumerate(left):
        for b, y in enumerate(right):
            res, loops = compose(x, y)
            if (merged := merge(res)) is not None:
                table[(a << m.bits) | b] = merged, loops
    return tuple(table)


class _Assembly(NamedTuple):
    """A loop complex as assembled at a pointed ring (R, a): per degree its
    packed words, their loop counts, and its boundary matrix over R, each
    entry a sum of sign * a^(loops closed).  Z[a] is assembled at (Z, 1),
    so its entries are the integers n of n * a^(w_col - w_row)."""

    words: dict[int, tuple[int, ...]]
    weights: dict[int, tuple[int, ...]]
    matrices: dict[int, SparseMatrix]


def _assemble(two_n: int, ends: EndSpec, max_degree: int, weight: int | None,
              dividers: int | None, subquotient: bool,
              ring: PointedRing) -> _Assembly:
    """The words, weight labels and boundary matrices of a loop complex,
    with every entry written in the domain of ring.

    A deletion with sign s that closes k loops writes s * a^k; its merge
    table entry carries that value and its opposite, and a deletion whose
    value vanishes (k > 0 at a = 0) is skipped, as in subquotient mode is
    every inner merge that changes the divider count.  Column by column,
    each deletion adds its value to the last entry of its row, or opens a
    new one, and an entry that cancels (equals the opposite value) is
    removed at once, so every row's columns come out in order with no zero
    value.  The loops are checked against the weight labels on the way.
    """
    m = _machine(two_n, ends)
    bits, is_div = m.bits, m.is_div
    dom = ring.domain

    # the empty system is word 0 of degree 0
    words: dict[int, tuple[int, ...]] = {0: (0,) if ends.augmented else ()}
    weights: dict[int, tuple[int, ...]] = {0: (0,) if ends.augmented else ()}
    for p in range(1, max_degree + 1):
        ws, counts = _raw_words(p, two_n, ends, weight, dividers)
        words[p] = tuple(ws)
        weights[p] = tuple(counts)

    slot_mask, pair_mask = (1 << bits) - 1, (1 << 2 * bits) - 1
    add = dom.add
    matrices: dict[int, SparseMatrix] = {}
    for p in range(1, max_degree + 1):
        row_w, col_w = weights[p - 1], weights[p]
        row_cols: list[list[int]] = [[] for _ in row_w]
        row_sums: list[list[object]] = [[] for _ in row_w]
        index = dict(zip(words[p - 1], count()))
        if p == 1:
            kinds = ["one"] if ends.augmented else []
        else:
            kinds = ["first"] + ["inner"] * (p - 2) + ["last"]
        deletions = []
        for i, kind in enumerate(kinds):
            lo = (p - 1 - i) * bits  # slot i + 1 sits lo bits up
            # each hit: merged id moved into place, loops, value, opposite
            sq = subquotient and kind == "inner"
            sign = dom.from_int(-1 if i % 2 else 1)
            placed = [None if hit is None
                      or (sq and is_div[hit[0]] != is_div[xy >> bits]
                          + is_div[xy & slot_mask])
                      or dom.is_zero(v := dom.mul(sign, ring.a_power(hit[1])))
                      else (hit[0] << lo, hit[1], v, dom.neg(v))
                      for xy, hit in enumerate(_merge_table(two_n, ends, kind))]
            deletions.append((placed, lo, lo + 2 * bits, lo + bits,
                              (1 << lo) - 1))
        for col, w, w_col in zip(count(), words[p], col_w):
            for table, lo, hi, mid, low_mask in deletions:
                hit = table[(w >> lo) & pair_mask]
                if hit is None:
                    continue
                merged, loops, value, opposite = hit
                try:
                    row = index[(w >> hi << mid) | merged | (w & low_mask)]
                except KeyError:
                    raise GraffitoError(
                        f"deletion {p - 1 - lo // bits} of word "
                        f"{_slot_ids(w, p + 1, bits)} hits no basis word"
                    ) from None
                if loops != w_col - row_w[row]:
                    raise GraffitoError(
                        f"deletion {p - 1 - lo // bits} of word "
                        f"{_slot_ids(w, p + 1, bits)} closes {loops} loops, "
                        f"but the weights differ by {w_col - row_w[row]}")
                cols = row_cols[row]
                if cols and cols[-1] == col:
                    sums = row_sums[row]
                    if sums[-1] == opposite:  # the entry cancels
                        cols.pop()
                        sums.pop()
                    else:
                        sums[-1] = add(sums[-1], value)
                else:
                    cols.append(col)
                    row_sums[row].append(value)
        matrices[p] = SparseMatrix.from_rows(
            len(row_w), len(col_w),
            ((r, tuple(cols), tuple(row_sums[r]))
             for r, cols in enumerate(row_cols) if cols), dom)
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
                    spec.dividers, spec.subquotient, at)

    label = f"loops(2n={spec.two_n}, ends={ends.code}"
    if ends.augmented:
        label += ", augmented"
    if spec.weight is not None:
        label += f", w={spec.weight}"
    if spec.dividers is not None:
        label += f", j={spec.dividers}"
    label += ")"
    unaugmented = EndSpec(ends.left_open, ends.right_open)
    basis = {p: Basis(ws, _Spelling(spec.two_n, unaugmented, p))
             for p, ws in asm.words.items()}
    return ChainComplexData(ring, spec.max_degree, basis, asm.matrices,
                            weights=asm.weights, description=label)


def chain_to_vector(c: Chain, data: ChainComplexData, degree: int) -> dict[int, object]:
    """Coordinates of a chain in the ordered basis of one degree.

    Each system is looked up by its packed word among the basis keys; a
    string is spelled only to name a system that is not there.
    """
    basis = data.basis.get(degree, Basis())
    index = dict(zip(basis.keys, count()))
    out = {}
    for g, v in c.terms.items():
        if g.degree != degree:
            raise GraffitoError("chain degree disagrees with requested degree")
        i = None
        if basis.spell == _Spelling(g.two_n, g.ends, degree):
            i = index.get(_packed_word(g))
        if i is None:
            raise GraffitoError(f"{g.encode()} is not in the basis of degree {degree}")
        out[i] = v
    return out
