"""The benchmark workloads: what each one computes and the answers it must give.

Every workload is a function ``(rng, smoke) -> (tasks, pinned)``.  ``tasks`` is
a list of thunks, already put in the order the seeded ``rng`` chose; each
thunk returns a dict of named answers.  ``pinned`` maps every answer name to
its exact expected value.  A task that raises leaves its answers missing, and
a missing answer counts as wrong.

The library is reached only through module attributes looked up at call
time (``H.homology(...)``, never ``from ... import homology``), so that the
tracer can patch each public function where its callers find it.
"""

from __future__ import annotations

import importlib

C = importlib.import_module("planarloops.coeff")
D = importlib.import_module("planarloops.diagram")
L = importlib.import_module("planarloops.loops")
F = importlib.import_module("planarloops.freedga")
# the package attribute planarloops.homology is the function, not the module
H = importlib.import_module("planarloops.homology")

Z0 = C.PointedRing.make(C.ZZ, 0)
Q0 = C.PointedRing.make(C.QQ, 0)
F2 = C.PointedRing.make(C.prime_field(2), 0)
ZAU = C.PointedRing.make(C.ZA)
RING_NAMES = {Z0: "Z", Q0: "Q", F2: "F2"}

OPEN_CODES = ("oo", "oc", "co")
# every end behaviour a workload builds; set-up warms the tables of each
ENDS = (L.CLOSED, L.EndSpec(augmented=True),
        *(L.EndSpec.from_code(code) for code in OPEN_CODES))


def warm() -> None:
    """Fill the lazy per-end transition tables (and the compose cache)."""
    for ends in ENDS:
        L.count_graffiti(1, ends=ends)


def reset_caches() -> None:
    """Empty every lru_cache of the library, as in a fresh process."""
    for name in ("coeff", "diagram", "loops", "freedga", "homology"):
        module = importlib.import_module(f"planarloops.{name}")
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _table(groups) -> dict:
    """{degree: (free rank, sorted torsion)} summed over weight blocks."""
    rank: dict[int, int] = {}
    torsion: dict[int, list[int]] = {}
    for h in groups:
        rank[h.degree] = rank.get(h.degree, 0) + h.free_rank
        torsion.setdefault(h.degree, []).extend(h.torsion)
    return {p: (rank[p], tuple(sorted(torsion[p]))) for p in sorted(rank)}


def _row(groups) -> tuple:
    return tuple((h.free_rank, h.torsion) for h in groups)


# -- homology-table ---------------------------------------------------------

# H_1..H_3 of the reduced closed 2n = 4 complex at a = 0 (criterion 9)
TABLES = {
    "Z": {1: (1, ()), 2: (0, (2,)), 3: (0, (2,))},
    "Q": {1: (1, ()), 2: (0, ()), 3: (0, ())},
    "F2": {1: (1, ()), 2: (1, ()), 3: (2, ())},
}


def homology_table(rng, smoke):
    degree = 3 if smoke else 4
    tops = range(1, degree)

    def loops(ring):
        big = L.build_complex(L.ComplexSpec(4, ring, L.CLOSED, max_degree=degree))
        blocks = H.weight_decompose(big)
        rng.shuffle(blocks)
        groups = [h for _, sub in blocks for h in H.homology(sub, tops)]
        return {f"loops/{RING_NAMES[ring]}": _table(groups)}

    def model(ring):
        cx = F.truncated_complex(F.minimal_model(4, ring), degree)
        return {f"model/{RING_NAMES[ring]}": _table(H.homology(cx, tops))}

    tasks = [lambda f=f, ring=ring: f(ring)
             for ring in RING_NAMES for f in (loops, model)]
    rng.shuffle(tasks)
    pinned = {f"{kind}/{name}": {p: table[p] for p in tops}
              for name, table in TABLES.items() for kind in ("loops", "model")}
    return tasks, pinned


# -- universal-dsq ----------------------------------------------------------

def universal_dsq(rng, smoke):
    top = 3 if smoke else 4
    model_top = 4 if smoke else 6
    specs = {"augmented" if ends.augmented else ends.code:
             L.ComplexSpec(4, ZAU, ends, max_degree=top) for ends in ENDS}

    def loops(label):
        return {f"dsq/{label}": H.validate_d_squared(L.build_complex(specs[label])).ok}

    def model(two_n):
        cx = F.truncated_complex(F.minimal_model(two_n, ZAU), model_top)
        return {f"dsq/model-{two_n}": H.validate_d_squared(cx).ok}

    tasks = [lambda label=label: loops(label) for label in specs]
    tasks += [lambda n=n: model(n) for n in range(2, 13, 2)]
    rng.shuffle(tasks)
    pinned = {f"dsq/{label}": True for label in specs}
    pinned.update({f"dsq/model-{n}": True for n in range(2, 13, 2)})
    return tasks, pinned


# -- row-certificates -------------------------------------------------------

def _generates(cx, chain, p) -> bool:
    """The class of chain generates H_p, which is free of rank one over Z."""
    v = L.chain_to_vector(chain, cx, p)
    if not H.is_cycle(cx, v, p) or H.is_boundary(cx, v, p):
        return False
    (h,) = H.homology(cx, [p], representatives=True)
    if h.free_rank != 1 or h.torsion or len(h.representatives) != 1:
        return False
    rep = h.representatives[0]
    for sign in (1, -1):
        diff = {k: rep.get(k, 0) - sign * v.get(k, 0) for k in set(rep) | set(v)}
        if H.is_boundary(cx, {k: x for k, x in diff.items() if x}, p):
            return True
    return False


def _nonbounding_cycle(cx, chain, p) -> bool:
    v = L.chain_to_vector(chain, cx, p)
    return H.is_cycle(cx, v, p) and not H.is_boundary(cx, v, p)


# the class each certified row is generated by: one-bar x in H_1, four-term y in H_3
CERTIFIED = {1: ("x", 1, "one-bar"), 2: ("y", 3, "four-term")}


def row_certificates(rng, smoke):
    degree = 4 if smoke else 5
    tops = range(1, degree)
    certified = {}

    def row(ring, w):
        cx = L.build_complex(L.ComplexSpec(4, ring, L.CLOSED, max_degree=degree,
                                           weight=w, dividers=0, subquotient=True))
        if w in CERTIFIED:
            certified[ring, w] = cx
        return {f"row/{RING_NAMES[ring]}/w{w}": _row(H.homology(cx, tops))}

    def open_row(code):
        cx = L.build_complex(L.ComplexSpec(4, Z0, L.EndSpec.from_code(code),
                                           max_degree=degree, weight=1,
                                           dividers=0, subquotient=True))
        return {f"row/Z/{code}": _row(H.homology(cx, tops))}

    def certificate(ring, w):
        gen, p, label = CERTIFIED[w]
        chain = F.phi(ring).images[gen]
        check = _generates if ring is Z0 else _nonbounding_cycle
        return {f"cert/{RING_NAMES[ring]}/{label}":
                check(certified[ring, w], chain, p)}

    rows = [lambda ring=ring, w=w: row(ring, w)
            for ring in (Z0, F2) for w in range(1, 5)]
    rows += [lambda code=code: open_row(code) for code in OPEN_CODES]
    certs = [lambda ring=ring, w=w: certificate(ring, w)
             for ring in (Z0, F2) for w in CERTIFIED]
    rng.shuffle(rows)
    rng.shuffle(certs)
    # certificates run after every row, so that the peak memory of the dense
    # transform SNF does not depend on how many rows ran before it
    tasks = rows + certs
    # one copy of R in degree 1 for one loop and in degree 3 for two loops;
    # rows with three and four loops are acyclic
    rows = {w: tuple((int(w in CERTIFIED and p == CERTIFIED[w][1]), ())
                     for p in tops)
            for w in range(1, 5)}
    pinned = {}
    for name in ("Z", "F2"):
        pinned.update({f"row/{name}/w{w}": rows[w] for w in rows})
        pinned.update({f"cert/{name}/{label}": True
                       for _, _, label in CERTIFIED.values()})
    pinned.update({f"row/Z/{code}": rows[1] for code in OPEN_CODES})
    return tasks, pinned


# -- stretch-w2 ---------------------------------------------------------------

def stretch_w2(rng, smoke):
    degree = 5 if smoke else 6
    p = degree - 1

    def block():
        cx = L.build_complex(L.ComplexSpec(4, F2, L.CLOSED, max_degree=degree,
                                           weight=2))
        return {f"stretch/F2/w2/H{p}": _row(H.homology(cx, [p]))}

    # the two-loop block is acyclic in degrees 4 and 5
    return [block], {f"stretch/F2/w2/H{p}": ((0, ()),)}


WORKLOADS = {
    "homology-table": homology_table,
    "universal-dsq": universal_dsq,
    "row-certificates": row_certificates,
    "stretch-w2": stretch_w2,
}
