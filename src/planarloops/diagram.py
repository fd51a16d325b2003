"""Planar Temperley-Lieb (n,m) diagrams and their calculus.

A diagram is a noncrossing perfect matching of n left and m right boundary
points.  Composition glues matched boundaries and counts the closed loops
that fall out; cell bases, slicing into cell states, reflections and the
one-bar letter decomposition all live here.  Everything is immutable and
hashable, and the small diagram sets that drive the loop complexes are
memoized.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

Endpoint = tuple[str, int]  # ('L', i) or ('R', j), 1-based top to bottom


class DiagramError(ValueError):
    """Invalid diagram data: parity, matching, or planarity failures."""


@dataclass(frozen=True)
class TLDiagram:
    """A Temperley-Lieb (n,m) diagram stored as its partner array: endpoint
    k's partner, with L1..Ln as 0..n-1 and R1..Rm as n..n+m-1."""

    n: int
    m: int
    partners: tuple[int, ...]

    def __post_init__(self):
        n, m, p = self.n, self.m, self.partners
        if n < 0 or m < 0 or (n + m) % 2 != 0:
            raise DiagramError(f"endpoint count {n}+{m} must be even and nonnegative")
        if type(p) is not tuple or len(p) != n + m:
            raise DiagramError(f"partners must be a tuple of {n + m} endpoints")
        for k, j in enumerate(p):
            if not 0 <= j < n + m or j == k or p[j] != k:
                raise DiagramError("partners are not a perfect matching of all endpoints")
        # Around the square, L1..Ln then Rm..R1, each endpoint closes the
        # arc on top of the stack or opens one; planar iff all arcs close.
        stack = []
        for k in chain(range(n), range(n + m - 1, n - 1, -1)):
            if stack and stack[-1] == p[k]:
                stack.pop()
            else:
                stack.append(k)
        if stack:
            raise DiagramError("pairs cross: diagram is not planar")

    @cached_property
    def pairs(self) -> tuple[tuple[Endpoint, Endpoint], ...]:
        """Endpoint pairs in canonical (index) order, for text and drawing."""
        def end(k):
            return ("L", k + 1) if k < self.n else ("R", k - self.n + 1)
        return tuple((end(i), end(j)) for i, j in enumerate(self.partners) if i < j)

    # -- basic statistics ---------------------------------------------------
    def through_count(self) -> int:
        """Number of strands connecting the left boundary to the right."""
        return sum(1 for j in self.partners[:self.n] if j >= self.n)

    def is_identity(self) -> bool:
        return self.n == self.m and self == identity_diagram(self.n)

    def has_ll_pair(self) -> bool:
        return any(j < self.n for j in self.partners[:self.n])

    def has_rr_pair(self) -> bool:
        return any(j >= self.n for j in self.partners[self.n:])

    # -- reflections ---------------------------------------------------------
    def reflect_lr(self) -> "TLDiagram":
        """Swap the roles of the two boundaries (an (n,m) -> (m,n) map): a
        rotation of the endpoint labels by m."""
        n, m, p = self.n, self.m, self.partners
        return TLDiagram(m, n, tuple((j + m) % (n + m) for j in p[n:] + p[:n]))

    def reflect_tb(self) -> "TLDiagram":
        """Flip top to bottom: Li -> L(n+1-i), Rj -> R(m+1-j)."""
        n, m, p = self.n, self.m, self.partners
        flip = (*range(n - 1, -1, -1), *range(n + m - 1, n - 1, -1))
        return TLDiagram(n, m, tuple(flip[p[k]] for k in flip))

    # -- text codec -----------------------------------------------------------
    def encode(self) -> str:
        body = ",".join(f"{a[0]}{a[1]}-{b[0]}{b[1]}" for a, b in self.pairs)
        return f"TL({self.n},{self.m}){{{body}}}"

    def __str__(self):
        return self.encode()


def new_diagram(n: int, m: int, pairs) -> TLDiagram:
    """Validated diagram from any iterable of endpoint pairs."""
    def index(ep):
        side, i = ep
        if side == "L" and 1 <= i <= n:
            return i - 1
        if side == "R" and 1 <= i <= m:
            return n + i - 1
        raise DiagramError(f"endpoint {ep!r} out of range for ({n},{m})")

    out = [-1] * (n + m)
    for a, b in pairs:
        i, j = index(a), index(b)
        if out[i] >= 0 or out[j] >= 0 or i == j:
            raise DiagramError(f"pair {a}-{b} reuses a matched endpoint")
        out[i], out[j] = j, i
    return TLDiagram(n, m, tuple(out))


_DIAGRAM_RE = re.compile(r"TL\((\d+),(\d+)\)\{([^}]*)\}")
_PAIR_RE = re.compile(r"([LR])(\d+)-([LR])(\d+)")


def parse_diagram(text: str) -> TLDiagram:
    text = re.sub(r"\s+", "", text)
    m = _DIAGRAM_RE.fullmatch(text)
    if not m:
        raise DiagramError(f"cannot parse diagram {text!r}")
    n, mm, body = int(m.group(1)), int(m.group(2)), m.group(3)
    pairs = []
    if body:
        for chunk in body.split(","):
            pm = _PAIR_RE.fullmatch(chunk)
            if not pm:
                raise DiagramError(f"bad pair {chunk!r} in {text!r}")
            pairs.append(((pm.group(1), int(pm.group(2))),
                          (pm.group(3), int(pm.group(4)))))
    return new_diagram(n, mm, pairs)


@lru_cache(maxsize=None)
def identity_diagram(n: int) -> TLDiagram:
    return TLDiagram(n, n, (*range(n, 2 * n), *range(n)))


EMPTY_DIAGRAM = TLDiagram(0, 0, ())


def glue(a: tuple[int, ...], b: tuple[int, ...], m: int) -> tuple[tuple[int, ...], int]:
    """The product of two diagrams given by partner arrays, a of an (n,m)
    diagram and b of an (m,l) one, glued along the m middle points: the
    (n,l) product's partner array and its number of closed loops.

    Each outer end walks, alternating between a and b, to its partner; the
    middle points that no walk visits lie on the closed loops.
    """
    n = len(a) - m
    out = [-1] * (len(a) + len(b) - 2 * m)
    seen = bytearray(m)
    for i in range(len(out)):
        if out[i] < 0:
            in_a, p = (True, a[i]) if i < n else (False, b[i - n + m])
            while p >= n if in_a else p < m:  # at a middle point: cross over
                seen[p - n if in_a else p] = 1
                p, in_a = b[p - n] if in_a else a[p + n], not in_a
            out[i] = j = p if in_a else p - m + n
            out[j] = i
    loops = 0
    for g in range(m):
        if not seen[g]:
            loops += 1
            while not seen[g]:
                seen[g] = seen[b[g]] = 1
                g = a[b[g] + n] - n
    return tuple(out), loops


@lru_cache(maxsize=None)
def compose(d1: TLDiagram, d2: TLDiagram) -> tuple[TLDiagram, int]:
    """Concatenate d1 (n,m) with d2 (m,l); return the diagram and loop count,
    computed by glue on the two partner arrays."""
    if d1.m != d2.n:
        raise DiagramError(f"shape mismatch: ({d1.n},{d1.m}) then ({d2.n},{d2.m})")
    res, loops = glue(d1.partners, d2.partners, d1.m)
    return TLDiagram(d1.n, d2.m, res), loops


@lru_cache(maxsize=None)
def enumerate_diagrams(n: int, m: int) -> tuple[TLDiagram, ...]:
    """All (n,m) diagrams in canonical (encoding-lexicographic) order."""
    count_diagrams(n, m)
    order = [("L", i) for i in range(1, n + 1)] + [("R", j) for j in range(m, 0, -1)]

    def matchings(points):
        if not points:
            yield []
            return
        first = points[0]
        for k in range(1, len(points), 2):
            left = points[1:k]
            right = points[k + 1:]
            for lm in matchings(left):
                for rm in matchings(right):
                    yield [(first, points[k])] + lm + rm

    out = [new_diagram(n, m, pm) for pm in matchings(order)]
    return tuple(sorted(out, key=TLDiagram.encode))


def count_diagrams(n: int, m: int) -> int:
    """Number of (n,m) diagrams, checked for shape and counted unlisted."""
    if n < 0 or m < 0:
        raise DiagramError(f"endpoint counts {n}, {m} must not be negative")
    if (n + m) % 2 != 0:
        raise DiagramError(f"endpoint count {n}+{m} must be even")
    return catalan((n + m) // 2)


def catalan(k: int) -> int:
    if k < 0:
        raise DiagramError(f"no Catalan number for k={k}")
    num, den = 1, 1
    for i in range(k):
        num *= 2 * k - i
        den *= i + 1
    return num // den // (k + 1)


# ---------------------------------------------------------------------------
# Cell states: the halves of a sliced diagram
# ---------------------------------------------------------------------------

LEFT_CELL = "left-cell"
RIGHT_CELL = "right-cell"

# the (2,0) cap and the (0,2) cup that join two hanging strands into one arc
_CAP = TLDiagram(2, 0, (1, 0))
_CUP = TLDiagram(0, 2, (1, 0))


def _cell_defects(d: TLDiagram, side: str) -> int:
    """The defects of d as a cell state of the given side, which it must be.

    left-cell states are (n,k) diagrams with no right-to-right pair (a basis
    of the cell module with k defects); right-cell states are (k,n) diagrams
    with no left-to-left pair (the opposite module).
    """
    if side == LEFT_CELL:
        if d.has_rr_pair():
            raise DiagramError(f"left-cell state {d} has a right-to-right pair")
        return d.m
    if side == RIGHT_CELL:
        if d.has_ll_pair():
            raise DiagramError(f"right-cell state {d} has a left-to-left pair")
        return d.n
    raise DiagramError(f"bad side tag {side!r}")


@lru_cache(maxsize=None)
def cell_basis(n: int, k: int, side: str = LEFT_CELL) -> tuple[TLDiagram, ...]:
    """Basis of the cell module with k defects on n points, canonical order."""
    if k > n or (n - k) % 2 != 0 or k < 0:
        raise DiagramError(f"no cell module for n={n}, k={k}")
    if side == LEFT_CELL:
        return tuple(d for d in enumerate_diagrams(n, k) if not d.has_rr_pair())
    if side == RIGHT_CELL:
        return tuple(d for d in enumerate_diagrams(k, n) if not d.has_ll_pair())
    raise DiagramError(f"bad side tag {side!r}")


def slice_diagram(d: TLDiagram) -> tuple[TLDiagram, TLDiagram]:
    """Cut each through-strand of a square diagram into two numbered stubs.

    Through-strands are numbered top to bottom; strand s becomes right point
    s of the left half and left point s of the right half.  The two halves
    are the left- and right-cell states, and unslice inverts the operation.
    """
    if d.n != d.m:
        raise DiagramError("slice is defined for square diagrams")
    # Pairs run in index order, so through-strands come sorted by left end.
    through = [(a[1], b[1]) for a, b in d.pairs if a[0] != b[0]]
    k = len(through)
    lp = [p for p in d.pairs if p[1][0] == "L"]
    rp = [p for p in d.pairs if p[0][0] == "R"]
    for s, (li, rj) in enumerate(through, 1):
        lp.append((("L", li), ("R", s)))
        rp.append((("L", s), ("R", rj)))
    return new_diagram(d.n, k, lp), new_diagram(k, d.m, rp)


def unslice(left: TLDiagram, right: TLDiagram) -> TLDiagram:
    """Rejoin matching stubs (stub i to stub i) of a left-cell and a
    right-cell state; inverse of slice_diagram.  Neither state pairs two
    stubs, so no loop closes."""
    kl, kr = _cell_defects(left, LEFT_CELL), _cell_defects(right, RIGHT_CELL)
    if kl != kr:
        raise DiagramError(f"stub count mismatch: {kl} vs {kr}")
    return compose(left, right)[0]


def close_up(d: TLDiagram, side: str) -> TLDiagram:
    """Join the two hanging strands of a 2-defect cell state into one arc:
    the product with the cap on the right of a left-cell state, or with the
    cup on the left of a right-cell state."""
    if (k := _cell_defects(d, side)) != 2:
        raise DiagramError(f"close_up needs exactly 2 defects, got {k}")
    return (compose(d, _CAP) if side == LEFT_CELL else compose(_CUP, d))[0]


# ---------------------------------------------------------------------------
# Letters: the one-bar pieces of a loop system, for 2n = 4
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Letter:
    """What a loop system does on a single bar.

    left is a right-cell state (kl,4): the arcs and hanging strands drawn on
    the left of the bar; right is a left-cell state (4,kr) drawn on the
    right.  Every bar node is covered once by each half.  Hanging strands are
    the stubs joined to the neighbouring bars; adjacency of stub counts is a
    word-level condition, not checked here.
    """

    left: TLDiagram
    right: TLDiagram

    def __post_init__(self):
        if self.left.m != 4 or self.right.n != 4:
            raise DiagramError("letters are defined on 4 bar nodes")
        if (_cell_defects(self.left, RIGHT_CELL) not in (0, 2)
                or _cell_defects(self.right, LEFT_CELL) not in (0, 2)):
            raise DiagramError("letter halves carry 0 or 2 stubs")

    @property
    def kl(self) -> int:
        return self.left.n

    @property
    def kr(self) -> int:
        return self.right.m

    def encode(self) -> str:
        return (f"LT({self.kl},{self.kr})"
                f"{{left={_half_text(self.left, 'L')};right={_half_text(self.right, 'R')}}}")

    def __str__(self):
        return self.encode()


def _half_text(d: TLDiagram, stub_boundary: str) -> str:
    # Stubs are the (k)-side points, nodes the 4-side; order S1,S2,N1..N4.
    def label(ep):
        return (f"S{ep[1]}" if ep[0] == stub_boundary else f"N{ep[1]}",
                (0, ep[1]) if ep[0] == stub_boundary else (1, ep[1]))

    pairs = []
    for a, b in d.pairs:
        (ta, ka), (tb, kb) = label(a), label(b)
        pairs.append(((ka, ta), (kb, tb)) if ka <= kb else ((kb, tb), (ka, ta)))
    pairs.sort()
    return ",".join(f"{a[1]}-{b[1]}" for a, b in pairs)


_LETTER_RE = re.compile(r"LT\((\d),(\d)\)\{left=([^;]*);right=([^}]*)\}")


def parse_letter(text: str) -> Letter:
    text = re.sub(r"\s+", "", text)
    m = _LETTER_RE.fullmatch(text)
    if not m:
        raise DiagramError(f"cannot parse letter {text!r}")
    kl, kr = int(m.group(1)), int(m.group(2))

    def half(body, stub_boundary, n, mm):
        pairs = []
        for chunk in body.split(","):
            pm = re.fullmatch(r"([SN])(\d)-([SN])(\d)", chunk)
            if not pm:
                raise DiagramError(f"bad half pair {chunk!r}")
            def ep(t, i):
                if t == "S":
                    return (stub_boundary, int(i))
                return ("R" if stub_boundary == "L" else "L", int(i))
            pairs.append((ep(pm.group(1), pm.group(2)), ep(pm.group(3), pm.group(4))))
        return new_diagram(n, mm, pairs)

    return Letter(half(m.group(3), "L", kl, 4), half(m.group(4), "R", 4, kr))


@lru_cache(maxsize=None)
def enumerate_letters(kl: int, kr: int) -> tuple[Letter, ...]:
    """All letters with the given stub counts, canonical order."""
    if kl not in (0, 2) or kr not in (0, 2):
        raise DiagramError("letters carry 0 or 2 stubs per side")
    lefts = cell_basis(4, kl, RIGHT_CELL)
    rights = cell_basis(4, kr, LEFT_CELL)
    out = [Letter(left, right) for left in lefts for right in rights]
    return tuple(sorted(out, key=Letter.encode))
