"""Deterministic ascii and svg pictures of diagrams, loop systems, chains.

Both renderers consume the same Layout: bars as vertical lines, nodes as
dots, arcs classified as left/right/through/stub.  Output bytes depend only
on the input encoding, so renders are reproducible and diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagram import TLDiagram
from .loops import Chain, Graffito


@dataclass
class Layout:
    """Arc incidence structure of one picture."""

    bars: int
    nodes_per_bar: int
    left_arcs: list[tuple[int, int, int]] = field(default_factory=list)
    right_arcs: list[tuple[int, int, int]] = field(default_factory=list)
    through: list[tuple[int, int, int]] = field(default_factory=list)
    stubs: list[tuple[str, int, int]] = field(default_factory=list)
    bar_nodes: list[int] | None = None  # per-bar node counts when unequal

    def nodes_on(self, b: int) -> int:
        if self.bar_nodes is not None:
            return self.bar_nodes[b - 1]
        return self.nodes_per_bar

    def arc_count(self) -> int:
        return (len(self.left_arcs) + len(self.right_arcs)
                + len(self.through) + len(self.stubs))


def layout_graffito(x: Graffito) -> Layout:
    if x.is_empty_system:
        return Layout(0, 0)
    p = x.degree
    lay = Layout(p, x.two_n)
    for k, f in enumerate(x.factors):
        for a, b in f.pairs:
            sides = (a[0], b[0])
            if sides == ("L", "L"):
                if k == 0:  # hanging strands of an open left end
                    continue
                lay.right_arcs.append((k, a[1], b[1]))
            elif sides == ("R", "R"):
                lay.left_arcs.append((k + 1, a[1], b[1]))
            else:
                if k == 0:
                    lay.stubs.append(("L", 1, b[1] if a[0] == "L" else a[1]))
                elif k == p:
                    lay.stubs.append(("R", p, a[1] if a[0] == "L" else b[1]))
                else:
                    li = a[1] if a[0] == "L" else b[1]
                    rj = b[1] if b[0] == "R" else a[1]
                    lay.through.append((k, li, rj))
    lay.left_arcs.sort()
    lay.right_arcs.sort()
    lay.through.sort()
    lay.stubs.sort()
    return lay


def layout_diagram(d: TLDiagram) -> Layout:
    """A single diagram drawn as the slab between two bars."""
    lay = Layout(2, max(d.n, d.m, 1), bar_nodes=[d.n, d.m])
    for a, b in d.pairs:
        sides = (a[0], b[0])
        if sides == ("L", "L"):
            lay.left_arcs.append((1, a[1], b[1]))
        elif sides == ("R", "R"):
            lay.right_arcs.append((2, a[1], b[1]))
        else:
            lay.through.append((1, a[1], b[1]))
    lay.left_arcs.sort()
    lay.right_arcs.sort()
    lay.through.sort()
    return lay


# ---------------------------------------------------------------------------
# ascii
# ---------------------------------------------------------------------------

_GAP = 12  # columns between bars


def _bar_col(b: int) -> int:
    return 6 + (b - 1) * _GAP


def _node_row(i: int) -> int:
    return 2 * i - 1


def _nesting_depth(arcs, b, i, j):
    return sum(1 for (bb, u, v) in arcs if bb == b and u < i and j < v)


def ascii_layout(lay: Layout) -> str:
    if lay.bars == 0:
        return "(empty)\n"
    height = 2 * lay.nodes_per_bar
    width = _bar_col(lay.bars) + 6
    grid = [[" "] * width for _ in range(height)]

    def put(r, c, ch):
        if 0 <= r < height and 0 <= c < width and grid[r][c] == " ":
            grid[r][c] = ch

    for b in range(1, lay.bars + 1):
        c = _bar_col(b)
        for r in range(height):
            grid[r][c] = "|"
    for side, arcs, sgn in (("L", lay.left_arcs, -1), ("R", lay.right_arcs, +1)):
        for b, i, j in arcs:
            c = _bar_col(b)
            depth = _nesting_depth(arcs, b, i, j)
            cc = c + sgn * (2 + 2 * depth)
            ri, rj = _node_row(i), _node_row(j)
            for cstep in range(min(c + sgn, cc), max(c + sgn, cc) + 1):
                put(ri, cstep, "-")
                put(rj, cstep, "-")
            put(ri, cc, "." if sgn < 0 else ".")
            put(rj, cc, "'" if sgn < 0 else "'")
            for r in range(ri + 1, rj):
                put(r, cc, "|" if grid[r][cc] == " " else grid[r][cc])
    for idx, (b, i, j) in enumerate(lay.through):
        c1, c2 = _bar_col(b), _bar_col(b + 1)
        ri, rj = _node_row(i), _node_row(j)
        if ri == rj:
            for cstep in range(c1 + 1, c2):
                put(ri, cstep, "-")
        else:
            mid = c1 + 5 + (idx % 3)
            for cstep in range(c1 + 1, mid):
                put(ri, cstep, "-")
            lo, hi = min(ri, rj), max(ri, rj)
            for r in range(lo, hi + 1):
                put(r, mid, "|" if r not in (ri, rj) else "+")
            for cstep in range(mid + 1, c2):
                put(rj, cstep, "-")
    for side, b, i in lay.stubs:
        r = _node_row(i)
        c = _bar_col(b)
        if side == "L":
            for cstep in range(c - 4, c):
                put(r, cstep, "-")
            put(r, c - 5, "~")
        else:
            for cstep in range(c + 1, c + 5):
                put(r, cstep, "-")
            put(r, c + 5, "~")
    for b in range(1, lay.bars + 1):
        c = _bar_col(b)
        for i in range(1, lay.nodes_on(b) + 1):
            grid[_node_row(i)][c] = "o"
    return "\n".join("".join(row).rstrip() for row in grid) + "\n"


def ascii_graffito(x: Graffito) -> str:
    return ascii_layout(layout_graffito(x))


def ascii_diagram(d: TLDiagram) -> str:
    return ascii_layout(layout_diagram(d))


def ascii_chain(c: Chain) -> str:
    if c.is_zero():
        return "0\n"
    dom = c.ring.domain
    blocks = []
    for g in sorted(c.terms, key=Graffito.encode):
        blocks.append(f"[{dom.format(c.terms[g])}] *\n" + ascii_graffito(g))
    return ("\n+\n").join(blocks)


# ---------------------------------------------------------------------------
# svg
# ---------------------------------------------------------------------------

_SX, _SY, _MARGIN = 60.0, 24.0, 30.0


def _pt(b: int, i: int) -> tuple[float, float]:
    return (_MARGIN + (b - 1) * _SX, _MARGIN + (i - 1) * _SY)


def svg_layout(lay: Layout) -> str:
    if lay.bars == 0:
        w, h = 2 * _MARGIN, 2 * _MARGIN
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
                f'height="{h:.0f}"></svg>\n')
    w = 2 * _MARGIN + (lay.bars - 1) * _SX
    h = 2 * _MARGIN + (lay.nodes_per_bar - 1) * _SY
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{w:.0f}" height="{h:.0f}">']
    for b in range(1, lay.bars + 1):
        x, _ = _pt(b, 1)
        out.append(f'<line x1="{x:.1f}" y1="{_MARGIN - 12:.1f}" x2="{x:.1f}" '
                   f'y2="{h - _MARGIN + 12:.1f}" stroke="black" stroke-width="2"/>')
    def arc(b, i, j, sgn):
        x, y1 = _pt(b, i)
        _, y2 = _pt(b, j)
        bulge = sgn * (14.0 + 4.0 * abs(j - i))
        out.append(
            f'<path d="M {x:.1f} {y1:.1f} C {x + bulge:.1f} {y1:.1f} '
            f'{x + bulge:.1f} {y2:.1f} {x:.1f} {y2:.1f}" '
            f'fill="none" stroke="black"/>')
    for b, i, j in lay.left_arcs:
        arc(b, i, j, -1)
    for b, i, j in lay.right_arcs:
        arc(b, i, j, +1)
    for b, i, j in lay.through:
        x1, y1 = _pt(b, i)
        x2, y2 = _pt(b + 1, j)
        out.append(
            f'<path d="M {x1:.1f} {y1:.1f} C {x1 + 20:.1f} {y1:.1f} '
            f'{x2 - 20:.1f} {y2:.1f} {x2:.1f} {y2:.1f}" '
            f'fill="none" stroke="black"/>')
    for side, b, i in lay.stubs:
        x, y = _pt(b, i)
        dx = -18.0 if side == "L" else 18.0
        out.append(f'<path d="M {x:.1f} {y:.1f} L {x + dx:.1f} {y:.1f}" '
                   f'fill="none" stroke="black" stroke-dasharray="3 2"/>')
    for b in range(1, lay.bars + 1):
        for i in range(1, lay.nodes_on(b) + 1):
            x, y = _pt(b, i)
            out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.6" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def svg_graffito(x: Graffito) -> str:
    return svg_layout(layout_graffito(x))


def svg_diagram(d: TLDiagram) -> str:
    return svg_layout(layout_diagram(d))


def svg_chain(c: Chain) -> str:
    if c.is_zero():
        return svg_layout(Layout(0, 0))
    dom = c.ring.domain
    parts = []
    for g in sorted(c.terms, key=Graffito.encode):
        parts.append(f"<!-- coefficient {dom.format(c.terms[g])} -->\n"
                     + svg_graffito(g))
    return "".join(parts)
