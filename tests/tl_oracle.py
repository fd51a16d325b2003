"""Reference Temperley-Lieb operations on endpoint labels, kept as oracles
for the partner-array forms the library uses: the path-following product
behind `diagram.glue` and the merge tables filled through it, the two
reflections, and the closing of a cell state's two hanging strands."""

from planarloops.diagram import DiagramError, TLDiagram, new_diagram


def reference_compose(d1: TLDiagram, d2: TLDiagram) -> tuple[TLDiagram, int]:
    """Concatenate d1 (n,m) with d2 (m,l); return the diagram and loop count.

    The m right points of d1 are glued to the m left points of d2.  Paths
    ending on the outer boundary give the pairs of the result; closed cycles
    among glued points are the loops.
    """
    if d1.m != d2.n:
        raise DiagramError(f"shape mismatch: ({d1.n},{d1.m}) then ({d2.n},{d2.m})")
    # Adjacency on glued points 1..m per side; outer endpoints stand alone.
    link1: dict = {}
    link2: dict = {}
    for a, b in d1.pairs:
        ka = ("g", a[1]) if a[0] == "R" else ("out", "L", a[1])
        kb = ("g", b[1]) if b[0] == "R" else ("out", "L", b[1])
        link1[ka] = kb
        link1[kb] = ka
    for a, b in d2.pairs:
        ka = ("g", a[1]) if a[0] == "L" else ("out", "R", a[1])
        kb = ("g", b[1]) if b[0] == "L" else ("out", "R", b[1])
        link2[ka] = kb
        link2[kb] = ka
    pairs = []
    visited = set()
    for start in list(link1) + list(link2):
        if start[0] != "out" or start in visited:
            continue
        visited.add(start)
        side = 1 if start in link1 else 2
        cur = link1[start] if side == 1 else link2[start]
        while cur[0] == "g":
            side = 3 - side
            cur = (link1 if side == 1 else link2)[cur]
        visited.add(cur)
        pairs.append(((start[1], start[2]), (cur[1], cur[2])))
    loops = 0
    seen = set()
    for g in range(1, d1.m + 1):
        node = ("g", g)
        if node in seen or node not in link1:
            continue
        cur, side = node, 1
        closed = True
        while True:
            seen.add(cur)
            cur = (link1 if side == 1 else link2)[cur]
            side = 3 - side
            if cur[0] == "out":
                closed = False
                break
            if cur == node and side == 1:
                break
            seen.add(cur)
        if closed:
            loops += 1
    # Gluing over 0 points leaves both traversal maps without cycles.
    return new_diagram(d1.n, d2.m, pairs), loops


def reference_merge_table(m, ends, kind) -> tuple:
    """A merge table of machine m filled through reference_compose, as the
    library filled it before: each product looked up among the diagrams of
    its target pool, None for a cell-quotient kill."""
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
            res, loops = reference_compose(x, y)
            if (merged := merge(res)) is not None:
                table[(a << m.bits) | b] = merged, loops
    return tuple(table)


def reference_reflect_lr(d: TLDiagram) -> TLDiagram:
    """Swap the roles of the two boundaries (an (n,m) -> (m,n) map)."""
    swap = {"L": "R", "R": "L"}
    return new_diagram(d.m, d.n, [((swap[a[0]], a[1]), (swap[b[0]], b[1]))
                                  for a, b in d.pairs])


def reference_reflect_tb(d: TLDiagram) -> TLDiagram:
    """Flip top to bottom: Li -> L(n+1-i), Rj -> R(m+1-j)."""
    def flip(ep):
        side, i = ep
        return (side, (d.n if side == "L" else d.m) + 1 - i)
    return new_diagram(d.n, d.m, [(flip(a), flip(b)) for a, b in d.pairs])


def reference_close_up(d: TLDiagram, stub_side: str) -> TLDiagram:
    """Join the two strands that hang off the stub side ('R' for an (n,2)
    left-cell state, 'L' for a (2,n) right-cell one) into one arc."""
    ends, keep = [], []
    for a, b in d.pairs:
        if a[0] == stub_side:
            ends.append(b)
        elif b[0] == stub_side:
            ends.append(a)
        else:
            keep.append((a, b))
    keep.append(tuple(ends))
    if stub_side == "R":
        return new_diagram(d.n, 0, keep)
    return new_diagram(0, d.m, keep)
