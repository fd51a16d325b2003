"""The level walk that listed the basis words before the per-class tail
tables, kept as an oracle for `loops._raw_words`: it grows all prefixes of
one length at a time and prunes by the transfer tables (`_completions`),
where the tail tables prune by empty sub-tails, so the two reach the same
words by different routes."""

from itertools import chain

from planarloops.loops import _completions, _machine


def level_walk(degree, two_n, ends, weight, dividers):
    """Basis words passing the filters, packed, in canonical order, and their
    loop counts, as two parallel lists.

    The slots that may follow a prefix depend only on its class (state,
    loops, and dividers under a divider filter), so each level keeps its
    prefixes in canonical order beside their class ids, and extends each by
    its class's admissible slot ids, ascending, tabulated once per class.
    A slot is admissible when `_completions` says some way of finishing
    still meets the filters.
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
