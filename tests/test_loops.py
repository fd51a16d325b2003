import array
import collections
import functools
import gc
import hashlib
import importlib
import inspect
import itertools
import json
import random
import re
import sys
import time
import tracemalloc
import weakref

import pytest

from planarloops import (Chain, ComplexSpec, EndSpec, GraffitoError,
                         PointedRing, QQ, ZA, ZZ, build_complex,
                         chain_to_vector, close_ends, compose, differential,
                         divider_count, enumerate_diagrams, homology, empty_system, enumerate_graffiti, face, from_word, identity_diagram,
                         four_model, involution_lr, involution_tb, loop_count,
                         minimal_model, new_graffito, nondivider_count,
                         parse_chain, parse_diagram, parse_graffito, parse_ring,
                         pivot_sequence, prime_field, product, to_word,
                         phi, truncated_complex, weight_blocks,
                         weight_decompose)
from planarloops import loops as loops_module
from planarloops.loops import (CLOSED, chain_involution_lr, chain_involution_tb,
                              count_graffiti)
from planarloops.homology import (Basis, graded_matrix, homology_table,
                                 over_field, validate_d_squared)

from tl_oracle import reference_compose, reference_merge_table
from walk_oracle import level_walk
from conftest import (DEG3_EXAMPLE, DEG3_FACES, DIVIDER_EXAMPLE,
                      DIVIDER_RAISING, DIVIDER_RAISING_TARGET, PHI_R, PHI_X,
                      PHI_XH, PIVOT_LETTERS, PRODUCT_EXAMPLE)

Z0 = PointedRing.make(ZZ, 0)
ZAU = PointedRing.make(ZA)
rng = random.Random(0)
# the package attribute planarloops.homology is the function, not the module
homology_module = importlib.import_module("planarloops.homology")


@functools.cache
def graffiti_pool(p):
    return enumerate_graffiti(p)


def rand_graffito(pmax=3, pmin=1):
    p = rng.randint(pmin, pmax)
    return rng.choice(graffiti_pool(p))


def test_new_graffito_examples():
    assert PHI_X.degree == 1 and PHI_XH.degree == 1
    with pytest.raises(GraffitoError):
        new_graffito(4, "cc", [parse_diagram("TL(0,4){R1-R2,R3-R4}"),
                               identity_diagram(4),
                               parse_diagram("TL(4,0){L1-L2,L3-L4}")])
    with pytest.raises(GraffitoError):
        new_graffito(4, "cc", [parse_diagram("TL(0,4){R1-R2,R3-R4}")])


def test_graffito_codec():
    for p in range(1, 3):
        for g in enumerate_graffiti(p):
            assert parse_graffito(g.encode()) == g
    for code in ("oc", "co", "oo"):
        for g in enumerate_graffiti(2, ends=code):
            assert parse_graffito(g.encode()) == g
    assert parse_graffito(empty_system().encode()) == empty_system()
    for code in ("oo", "oc", "co"):
        with pytest.raises(GraffitoError, match="the empty system has closed ends"):
            parse_graffito(f"G({code})[TL(0,0){{}}]")


def test_face_examples():
    assert face(PHI_R, 0, ZAU) == Chain.of(ZAU, PHI_XH)
    assert face(PHI_R, 1, ZAU) == Chain.of(ZAU, PHI_X)
    with pytest.raises(IndexError):
        face(PHI_R, 2, ZAU)


def test_face_worked_degree3_example():
    # deletions pay one marked factor per loop they unpin
    for i, (target, loops) in enumerate(DEG3_FACES):
        got = face(DEG3_EXAMPLE, i, ZAU)
        assert got == Chain(ZAU, {target: ZAU.a_power(loops)})
    d = differential(Chain.of(ZAU, DEG3_EXAMPLE))
    dom = ZAU.domain
    expected = Chain(ZAU, {
        DEG3_FACES[0][0]: dom.one(),
        DEG3_FACES[1][0]: dom.neg(ZAU.a_power(1)),
        DEG3_FACES[2][0]: dom.one(),
    })
    assert d == expected


def test_differential_examples():
    assert differential(Chain.of(ZAU, PHI_R)) == Chain.of(ZAU, PHI_XH) - Chain.of(ZAU, PHI_X)
    for _ in range(100):
        c = Chain.of(ZAU, rand_graffito(3, 2))
        assert differential(differential(c)).is_zero()


def test_face_augmentation():
    f = face(PHI_X, 0, ZAU)
    assert f == Chain(ZAU, {empty_system(): ZAU.a_power(1)})
    f0 = face(PHI_X, 0, Z0)
    assert f0.is_zero()


def test_product_examples():
    assert product(DEG3_EXAMPLE, PHI_XH) == PRODUCT_EXAMPLE
    xy = product(PHI_X, PHI_XH)
    assert xy.degree == 2 and divider_count(xy) == 1
    for _ in range(100):
        x, y = rand_graffito(), rand_graffito()
        assert loop_count(product(x, y)) == loop_count(x) + loop_count(y)
    with pytest.raises(GraffitoError):
        product(enumerate_graffiti(1, ends="co")[0], PHI_X)



def test_chain_operands_must_share_the_ring():
    z, za = Chain.of(Z0, PHI_X), Chain.of(ZAU, PHI_X)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(GraffitoError):
            op(z, za)
    assert z != za


def test_chain_subtraction_and_repr():
    local = random.Random(3)
    dom = ZAU.domain
    for _ in range(50):
        p = local.randint(1, 3)
        a, b = (Chain(ZAU, {g: dom.from_int(local.randint(-2, 2))
                            for g in local.sample(graffiti_pool(p), 3)})
                for _ in range(2))
        assert a - b == a + (-b)
        assert a - a == Chain(ZAU) and (a - a).is_zero()
    c = Chain.of(ZAU, PHI_X, ((0, 1), (1, 1))) - Chain.of(ZAU, PHI_XH)
    assert repr(c) == (
        "Chain((a+1)*G(cc)[TL(0,4){R1-R2,R3-R4} | TL(4,0){L1-L4,L2-L3}]"
        " + -1*G(cc)[TL(0,4){R1-R4,R2-R3} | TL(4,0){L1-L2,L3-L4}])")
    assert repr(c) == f"Chain({c})"
    assert repr(Chain(ZAU)) == "Chain(0)"

def test_loop_and_divider_counts():
    assert loop_count(PHI_X) == 1
    two_loop = parse_graffito(
        "G(cc)[TL(0,4){R1-R2,R3-R4} | TL(4,0){L1-L2,L3-L4}]")
    assert loop_count(two_loop) == 2
    assert divider_count(PHI_X) == 0
    assert divider_count(product(PHI_X, PHI_XH)) == 1
    assert divider_count(DIVIDER_EXAMPLE) == 3
    assert nondivider_count(DIVIDER_EXAMPLE) == DIVIDER_EXAMPLE.degree - 1 - 3


def test_divider_raising_deletion():
    f = face(DIVIDER_RAISING, 1, Z0)
    assert f == Chain.of(Z0, DIVIDER_RAISING_TARGET)
    assert divider_count(DIVIDER_RAISING) == 0
    assert divider_count(DIVIDER_RAISING_TARGET) == 1


def test_divider_monotonicity():
    for _ in range(300):
        x = rand_graffito(4, 2)
        for i in range(x.degree):
            f = face(x, i, Z0)
            if f.is_zero():
                continue
            (t, _), = f.terms.items()
            assert divider_count(t) in (divider_count(x), divider_count(x) + 1)


def test_close_ends():
    g = enumerate_graffiti(2, ends="oo")[0]
    closed = close_ends(g)
    assert not closed.left_open and not closed.right_open
    assert close_ends(PHI_X) == PHI_X
    for p in (1, 2):
        for g in enumerate_graffiti(p, ends="oo", weight=1, dividers=0):
            assert loop_count(g) == 1 and divider_count(g) == 0


def test_involutions():
    assert involution_tb(PHI_X) == PHI_X
    assert involution_lr(PHI_X) == PHI_XH
    assert involution_lr(PHI_R) == PHI_R
    for _ in range(200):
        x = rand_graffito()
        assert involution_tb(involution_tb(x)) == x
        assert involution_lr(involution_lr(x)) == x
    for _ in range(100):
        x, y = rand_graffito(), rand_graffito()
        assert involution_lr(product(x, y)) == product(involution_lr(y),
                                                       involution_lr(x))


def test_involution_differential_relations():
    for _ in range(150):
        x = rand_graffito(4, 2)
        c = Chain.of(ZAU, x)
        assert differential(chain_involution_tb(c)) == chain_involution_tb(differential(c))
        rhs = chain_involution_lr(differential(c))
        if (x.degree + 1) % 2:
            rhs = -rhs
        assert differential(chain_involution_lr(c)) == rhs


def test_word_roundtrip():
    assert len(to_word(PHI_X)) == 1
    for p in range(1, 4):
        for g in enumerate_graffiti(p):
            w = to_word(g)
            assert len(w) == p
            assert from_word(w) == g
    for code in ("oc", "co", "oo"):
        for g in enumerate_graffiti(2, ends=code):
            assert from_word(to_word(g)) == g
    from planarloops import enumerate_letters
    l00 = enumerate_letters(0, 0)[0]
    l22 = enumerate_letters(2, 2)[0]
    with pytest.raises(GraffitoError):
        from_word((l00, l22))  # 0 leaving stubs meet 2 entering stubs


def test_pivot_sequences():
    y_summand = parse_graffito(
        "G(cc)[TL(0,4){R1-R2,R3-R4} | TL(4,4){L1-R3,L2-L3,L4-R4,R1-R2}"
        " | TL(4,4){L1-L2,L3-R1,L4-R4,R2-R3} | TL(4,0){L1-L2,L3-L4}]")
    assert loop_count(y_summand) == 2 and divider_count(y_summand) == 0
    assert len(pivot_sequence(y_summand)) == 1
    assert pivot_sequence(PHI_X) == ()
    for g in enumerate_graffiti(4, weight=3, dividers=0):
        assert len(pivot_sequence(g)) == 2
        break
    for p in range(1, 4):
        for g in enumerate_graffiti(p, weight=2, dividers=0):
            seq = pivot_sequence(g)
            assert len(seq) == 1 and seq[0] in PIVOT_LETTERS


def test_loop_count_agrees_with_component_count():
    # composition loop counting vs connected components of the node graph
    from planarloops.loops import _loop_ids
    for p in range(1, 4):
        for g in enumerate_graffiti(p):
            ids = _loop_ids(g)
            components = {c for bar in ids for c in bar.values()}
            assert loop_count(g) == len(components)


def test_build_complex_dimensions():
    for p, size in zip(range(1, 5), (4, 52, 676, 8788)):
        assert len(enumerate_graffiti(p)) == size
    c10 = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=2,
                                    weight=1, dividers=0, subquotient=True))
    assert c10.basis[1] == (PHI_X.encode(), PHI_XH.encode())
    coo = build_complex(ComplexSpec(4, Z0, EndSpec.from_code("oo"), max_degree=1,
                                    weight=1, dividers=0, subquotient=True))
    assert coo.dim(1) == 4


def test_subquotient_requires_flags():
    with pytest.raises(GraffitoError):
        ComplexSpec(4, Z0, CLOSED, max_degree=2, dividers=0)
    with pytest.raises(GraffitoError):
        ComplexSpec(4, PointedRing.make(ZZ, 1), CLOSED, max_degree=2,
                    weight=1, dividers=0, subquotient=True)


def test_spec_rejects_a_negative_max_degree():
    with pytest.raises(GraffitoError, match="max_degree"):
        ComplexSpec(4, Z0, CLOSED, max_degree=-1)
    cx = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=0))
    assert cx.max_degree == 0 and cx.matrices == {} and cx.dim(0) == 0


def test_bases_are_canonical():
    # no assembler sorts: each emits its basis in canonical order as it goes
    specs = [ComplexSpec(4, Z0, EndSpec.from_code(code, aug), max_degree=4)
             for code, aug in (("cc", False), ("cc", True), ("oo", False),
                               ("oc", False), ("co", False))]
    specs += [ComplexSpec(2, Z0, max_degree=3), ComplexSpec(6, Z0, max_degree=2)]
    # the unfiltered 2n = 6 degree-3 layer has 429,025 words; its weight
    # rows run the same walk
    specs += [ComplexSpec(6, Z0, max_degree=3, weight=w) for w in (1, 2)]
    specs += [ComplexSpec(4, Z0, max_degree=4, weight=w, dividers=j,
                          subquotient=True)
              for w in range(1, 4) for j in range(2)]
    for spec in specs:
        cx = build_complex(spec)
        for p in range(1, spec.max_degree + 1):
            assert list(cx.basis[p]) == sorted(cx.basis[p]), (spec, p)
    for model in [minimal_model(n, Z0) for n in (2, 4, 6, 8)] + [four_model(Z0)]:
        index = {g.name: i for i, g in enumerate(model.generators)}
        cx = truncated_complex(model, 6)
        for p in range(7):
            keys = [(len(w), [index[g] for g in w])
                    for w in (b.split(".") for b in cx.basis[p])]
            assert keys == sorted(keys), (model.generators, p)


@pytest.mark.parametrize("ring", (Z0, PointedRing.make(prime_field(2), 0)),
                         ids=("Z", "F2"))
def test_weight_blocks_match_filtered_builds(ring):
    full = build_complex(ComplexSpec(4, ring, CLOSED, max_degree=4))
    blocks = weight_decompose(full)
    assert [w for w, _ in blocks] == list(range(1, 9))
    for w, block in blocks:
        cx = build_complex(ComplexSpec(4, ring, CLOSED, max_degree=4, weight=w))
        assert block.basis == cx.basis and block.weights == cx.weights
        for p in range(1, 5):
            assert block.boundary(p).entries == cx.boundary(p).entries


def test_augmented_d_squared():
    cx = build_complex(ComplexSpec(4, ZAU, EndSpec(augmented=True), max_degree=3))
    assert cx.dim(0) == 1
    assert validate_d_squared(cx).ok
    d1 = cx.boundary(1)
    assert d1.nnz() == 4  # every one-bar system hits the empty system


def test_augmented_build_reuses_the_closed_tables():
    # augmentation adds word 0 and the "one" deletion and leaves every slot
    # pool as it is, so an augmented build reads the closed machine, walks
    # and merge tables
    caches = (loops_module._machine, loops_module._completions,
              loops_module._merge_table)
    for cache in caches:
        cache.cache_clear()
    closed = build_complex(ComplexSpec(4, ZAU, CLOSED, max_degree=4))
    before = [cache.cache_info().currsize for cache in caches]
    augmented = build_complex(ComplexSpec(4, ZAU, EndSpec(augmented=True),
                                          max_degree=4))
    assert [cache.cache_info().currsize for cache in caches] == [
        before[0], before[1], before[2] + 1]
    # the one new merge table is the closed machine's "one" table
    hits = loops_module._merge_table.cache_info().hits
    loops_module._merge_table(4, CLOSED, "one")
    assert loops_module._merge_table.cache_info().hits == hits + 1
    for p in range(2, 5):
        assert augmented.matrices[p].row_data == closed.matrices[p].row_data


def test_augmented_listings_read_the_closed_machine():
    # counting, listing and building with augmented ends all read the one
    # machine of the closed ends, and list what the closed ends list
    loops_module._machine.cache_clear()
    augmented = EndSpec(augmented=True)
    for p in range(4):
        assert count_graffiti(p, ends=augmented) == count_graffiti(p)
        assert enumerate_graffiti(p, ends=augmented) == enumerate_graffiti(p)
    build_complex(ComplexSpec(4, ZAU, augmented, max_degree=3))
    assert loops_module._machine.cache_info().currsize == 1


# every end behaviour, and rings where a is 0, a unit, 2, or the generator
ORACLE_ENDS = (CLOSED, EndSpec(augmented=True),
               *(EndSpec.from_code(code) for code in ("oo", "oc", "co")))
ORACLE_RINGS = (ZAU, Z0, PointedRing.make(ZZ, 2), PointedRing.make(QQ, 0),
                PointedRing.make(prime_field(2), 0),
                PointedRing.make(prime_field(3), 1))


def _columns(mat) -> dict:
    """{column: {row: value}} of a matrix's stored entries."""
    cols: dict = {}
    for r, cs, vs in mat.row_data:
        for j, v in zip(cs, vs):
            cols.setdefault(j, {})[r] = v
    return cols


@pytest.mark.parametrize("ends", ORACLE_ENDS,
                         ids=lambda e: e.code + ("+aug" if e.augmented else ""))
def test_build_complex_matches_chain_differential(ends):
    # the Chain/face layer is an independent route to every column
    systems = {p: enumerate_graffiti(p, ends=ends) for p in range(1, 4)}
    for ring in ORACLE_RINGS:
        cx = build_complex(ComplexSpec(4, ring, ends, max_degree=3))
        for p in range(1, 4):
            assert cx.basis[p] == tuple(g.encode() for g in systems[p])
            cols = _columns(cx.boundary(p))
            for j, g in enumerate(systems[p]):
                d = differential(Chain.of(ring, g))
                if p == 1 and not ends.augmented:
                    # the reduced complex drops the merge to the empty system
                    assert set(d.terms) <= {empty_system()} and j not in cols
                    continue
                assert chain_to_vector(d, cx, p - 1) == cols.get(j, {}), (ring, g)


def _merge_branches(build):
    """Run build() under a line tracer on _Tails.rows and count the branches
    of the inside-head merge taken: a head inserted, added to the entry it
    meets, or cancelling it, and two heads inserted at one bisect point of
    one row."""
    rows = loops_module._Tails.rows
    src, first = inspect.getsourcelines(rows)
    at = {}
    for text, names in (("cs.insert(at + i, shift(b + k))", ("insert", "runs insert")),
                        ("= add(vs[at + i], v)", ("add",)),
                        ("del cs[at + i]", ("cancel", "runs cancel"))):
        lines = [first + j for j, code in enumerate(src) if text in code]
        assert len(lines) == len(names), text
        at.update(zip(lines, names))
    taken, points, frames = collections.Counter(), collections.Counter(), []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in at:
            name = at[frame.f_lineno]
            taken[name] += 1
            if name.endswith("insert"):
                f = frame.f_locals
                points[frames.index(frame), f["u"], f["k"], f["i"]] += 1
        return local

    def calls(frame, event, arg):
        if frame.f_code is rows.__code__:
            if frame not in frames:
                frames.append(frame)
            return local
        return None

    held = sys.gettrace()
    sys.settrace(calls)
    try:
        cx = build()
    finally:
        sys.settrace(held)
    taken["two heads at one point"] = sum(n > 1 for n in points.values())
    return cx, taken


F3_AT_1 = PointedRing.make(prime_field(3), 1)


# degree-4 builds that reach every branch of the inside-head merge: at a = 0
# a head meets an entry only to cancel it (-1 + 1 over Z; over F2 always, in
# shared runs), at a = 1 two heads also add up (to 2 over Z[a], whose
# entries are assembled at (Z, 1), and 1 + 1 = 2 against 1 + 2 = 0 over F3)
@pytest.mark.parametrize("ring, ends, weight, branches", [
    (Z0, "oc", 4, {"insert", "cancel"}),
    (PointedRing.make(prime_field(2), 0), "cc", 3, {"runs insert", "runs cancel"}),
    (F3_AT_1, "cc", None, {"insert", "add", "cancel"}),
    (ZAU, "cc", None, {"insert", "add", "cancel"}),
], ids=["Z-oc-w4", "F2-cc-w3", "F3-at-1-cc", "Za-cc"])
def test_degree_4_inside_head_merges_match_chain_differential(ring, ends, weight, branches):
    spec = ComplexSpec(4, ring, EndSpec.from_code(ends), max_degree=4, weight=weight)
    cx, taken = _merge_branches(lambda: build_complex(spec))
    assert set(+taken) == branches | {"two heads at one point"}, taken
    cols = _columns(cx.boundary(4))
    for j, g in enumerate(enumerate_graffiti(4, ends=ends, weight=weight)):
        assert chain_to_vector(differential(Chain.of(ring, g)), cx, 3) == cols.get(j, {}), g


@pytest.mark.parametrize("field, pairs", [
    (Z0, [((1, -1), (1, -1), (2, -2)), ((1, -1), (-1, 1), None)]),
    (PointedRing.make(prime_field(2), 0), [((1, 1), (1, 1), None)]),
    (PointedRing.make(prime_field(3), 0), [((1, 2), (1, 2), (2, 1)), ((2, 1), (1, 2), None)]),
], ids=["Z", "F2", "F3"])
def test_merge_heads_adds_or_cancels_runs_at_one_offset(field, pairs):
    opposite = loops_module._Opposites()
    opposite.neg = field.domain.neg
    lone = (1, field.domain.neg(1))
    for x, y, total in pairs:
        merged = loops_module._merge_heads([(0, lone), (3, x), (3, y), (5, lone)],
                                           field.domain.add, opposite)
        middle = [] if total is None else [(3, total)]
        assert merged == [(0, lone), *middle, (5, lone)], (x, y)


def test_top_blocks_built_from_the_level_below_match_chain_differential(monkeypatch):
    # d_5 of the closed two-loop block over F2: each top block no other block
    # shares is built by the level below with the block's heads handed down,
    # where 20 of them meet a head of that level at one offset and cancel
    met = []
    real = loops_module._merge_heads

    def counting(hs, add, opposite):
        out = real(hs, add, opposite)
        met.append(len(hs) - len(out))
        return out

    monkeypatch.setattr(loops_module, "_merge_heads", counting)
    f2 = PointedRing.make(prime_field(2), 0)
    cx = build_complex(ComplexSpec(4, f2, CLOSED, max_degree=5, weight=2))
    assert sum(met) == 2 * 20
    cols = _columns(cx.boundary(5))
    for j, g in enumerate(enumerate_graffiti(5, weight=2)):
        assert chain_to_vector(differential(Chain.of(f2, g)), cx, 4) == cols.get(j, {}), g


def test_weight_labels_match_loop_counts():
    # the object layer reads each basis element's statistics afresh
    specs = [ComplexSpec(4, Z0, ends, max_degree=3) for ends in ORACLE_ENDS]
    for ends in ORACLE_ENDS[:1] + ORACLE_ENDS[2:]:  # filters are unaugmented
        specs += [ComplexSpec(4, Z0, ends, max_degree=3, weight=w) for w in (1, 3)]
        specs += [ComplexSpec(4, Z0, ends, max_degree=4, weight=w, dividers=j,
                              subquotient=True) for w in (1, 2, 3) for j in (0, 1)]
    for spec in specs:
        cx = build_complex(spec)
        for p in range(1, spec.max_degree + 1):
            for enc, w in zip(cx.basis[p], cx.weights[p]):
                g = parse_graffito(enc)
                assert loop_count(g) == w, (spec, enc)
                assert spec.weight in (None, w), (spec, enc)
                assert spec.dividers in (None, divider_count(g)), (spec, enc)


def test_assembly_raises_on_a_deletion_outside_the_basis(monkeypatch):
    # every kept deletion lands in the basis; a walk that loses one degree-1
    # word leaves some degree-2 deletion nowhere to go.  The build walks
    # its own class tree, so the walk is patched there
    real = loops_module._ClassTree.words

    def one_word_short(tree, p):
        words, counts = real(tree, p)
        if p == 1:
            return words[1:], counts[1:]
        return words, counts

    monkeypatch.setattr(loops_module._ClassTree, "words", one_word_short)
    with pytest.raises(GraffitoError, match="hits no basis word"):
        build_complex(ComplexSpec(4, ZAU, CLOSED, max_degree=2))


def test_assembly_checks_loops_against_weights(monkeypatch):
    loops_module.count_graffiti(1)  # fill the weight machine before the patch
    # empty merge tables, filled by the faulty kernel and dropped afterwards
    monkeypatch.setattr(loops_module, "_merge_table",
                        functools.lru_cache(loops_module._merge_table.__wrapped__))
    real = loops_module.glue

    def one_loop_too_many(a, b, m):
        res, loops = real(a, b, m)
        return res, loops + 1

    monkeypatch.setattr(loops_module, "glue", one_loop_too_many)
    with pytest.raises(GraffitoError, match="weights differ"):
        build_complex(ComplexSpec(4, ZAU, CLOSED, max_degree=2))


def test_merge_table_refuses_a_product_outside_its_pool(monkeypatch):
    """A product missing from the target pool is dropped only as a
    cell-quotient kill; any other miss stops the table fill."""
    loops_module.count_graffiti(1)  # fill the machine before the patch
    monkeypatch.setattr(loops_module, "_merge_table",
                        functools.lru_cache(loops_module._merge_table.__wrapped__))
    real = loops_module.glue
    identity = identity_diagram(4).partners  # not an inner slot

    def off_pool(a, b, m):
        return (identity, real(a, b, m)[1]) if len(a) == len(b) == 8 else real(a, b, m)

    monkeypatch.setattr(loops_module, "glue", off_pool)
    with pytest.raises(GraffitoError, match="inner merge .* leaves the slot pool"):
        loops_module._merge_table(4, CLOSED, "inner")


MACHINE_SHAPES = [(2, "cc"), (4, "cc"), (4, "oo"), (4, "oc"), (4, "co"), (6, "cc")]


@pytest.mark.parametrize("two_n, code", MACHINE_SHAPES)
def test_merge_tables_equal_the_reference_fill(two_n, code):
    ends = EndSpec.from_code(code)
    m = loops_module._machine(two_n, ends)
    for kind in ("one", "first", "last", "inner"):
        assert (loops_module._merge_table(two_n, ends, kind)
                == reference_merge_table(m, ends, kind)), kind
    states = enumerate_diagrams(0, two_n)
    assert m.step == [[(states.index(res), loops) for res, loops in
                       (reference_compose(s, d) for d in m.inner)] for s in states]


def test_table_fill_makes_no_compose_cache_entry(monkeypatch):
    """The machine and merge tables glue partner arrays: filling them from
    empty caches neither calls nor fills the compose cache."""
    for name in ("_machine", "_completions", "_merge_table"):
        monkeypatch.setattr(loops_module, name,
                            functools.lru_cache(getattr(loops_module, name).__wrapped__))
    before = compose.cache_info()
    for kind in ("one", "first", "last", "inner"):
        loops_module._merge_table(4, CLOSED, kind)
    assert compose.cache_info() == before


def test_six_point_weight_two_block_is_pinned():
    cx = build_complex(ComplexSpec(6, Z0, CLOSED, max_degree=3, weight=2))
    assert [(h.degree, h.free_rank, h.torsion) for h in homology(cx, [1, 2])] == [
        (1, 0, ()), (2, 0, (2,))]


# every kind of spec the CLI and the benchmark build at a = 0
FIELD_SPECS = [
    dict(ends=CLOSED, max_degree=4),
    dict(ends=EndSpec(augmented=True), max_degree=4),
    *(dict(ends=EndSpec.from_code(code), max_degree=3)
      for code in ("oo", "oc", "co")),
    dict(ends=CLOSED, max_degree=5, weight=2),
    dict(ends=CLOSED, max_degree=5, weight=2, dividers=0, subquotient=True),
    dict(ends=EndSpec.from_code("oo"), max_degree=5, weight=1, dividers=0,
         subquotient=True),
]
FIELDS = (QQ, prime_field(2), prime_field(3), prime_field(5))


def assert_in_domain(mat, dom):
    for _, _, vals in mat.row_data:
        for v in vals:
            dom.validate(v)


A_NONZERO_RINGS = (PointedRing.make(prime_field(3), 1), PointedRing.make(ZZ, 2),
                   PointedRing.make(QQ, -2), PointedRing.make(prime_field(5), 2),
                   PointedRing.make(ZZ, -1))


def test_ring_step_maps_the_integer_assembly():
    # at a = 0 the assembly writes each entry in the field itself, and
    # mapping the Z build through over_field is the independent reference;
    # at any other a, graded_matrix of the Z[a] build's integer sums is one
    for spec in FIELD_SPECS:
        over_z = build_complex(ComplexSpec(4, Z0, **spec))
        top = spec["max_degree"]
        for dom in FIELDS:
            cx = build_complex(ComplexSpec(4, PointedRing.make(dom, 0), **spec))
            assert cx.weights == over_z.weights
            for p in range(top + 1):
                assert cx.basis[p] == over_z.basis[p]
            for p in range(1, top + 1):
                assert cx.matrices[p] == over_field(over_z.matrices[p], dom), \
                    (spec, dom, p)
                assert_in_domain(cx.matrices[p], dom)
    for spec in FIELD_SPECS[:5]:
        over_za = build_complex(ComplexSpec(4, ZAU, **spec))
        top = spec["max_degree"]
        for ring in A_NONZERO_RINGS:
            cx = build_complex(ComplexSpec(4, ring, **spec))
            assert cx.weights == over_za.weights
            for p in range(1, top + 1):
                z = over_za.matrices[p]  # integer; boundary(p) reads it over Z[a]
                assert cx.matrices[p] == graded_matrix(
                    z.rows, z.cols, z.row_data, over_za.weights[p - 1],
                    over_za.weights[p], ring), (spec, ring, p)
                assert_in_domain(cx.matrices[p], ring.domain)


def test_builds_render_no_graded_entries(monkeypatch):
    # every ring, Z[a] included, is assembled in one pass at its own (R, a);
    # no build hands integer sums to graded_matrix afterwards
    def refuse(*args, **kwargs):
        raise AssertionError("graded_matrix called by build_complex")

    monkeypatch.setattr(homology_module, "graded_matrix", refuse)
    monkeypatch.setattr(loops_module, "graded_matrix", refuse, raising=False)
    rings = (ZAU, *(PointedRing.make(dom, 0) for dom in (ZZ, *FIELDS)),
             *A_NONZERO_RINGS)
    for ring in rings:
        for spec in FIELD_SPECS[:5]:
            build_complex(ComplexSpec(4, ring, **{**spec, "max_degree": 3}))


def _one_state_machine(m):
    """The machine m with one state, which every slot keeps, and no loop."""
    return m._replace(start=[0] * len(m.first), step=[[(0, 0)] * len(m.inner)],
                      finish=[[0] * len(m.last)])


def _use_machine(monkeypatch, machine):
    # the transfer tables are cached per (two_n, ends, r), so they are read
    # uncached off the stand-in machine while it is in place
    monkeypatch.setattr(loops_module, "_machine", lambda two_n, ends: machine)
    monkeypatch.setattr(loops_module, "_completions",
                        loops_module._completions.__wrapped__)


def test_field_assembly_adds_same_sign_hits(monkeypatch):
    # no natural complex has an entry of size 2, so fake merge tables make
    # some: a first merge keeps its first slot, a last merge its last slot,
    # and an inner merge of two different ids keeps the smaller one (one id
    # twice is killed).  Then deletions 0 and 2 of (x0, x1, x1, x3) both hit
    # (x0, x1, x3) with sign +1, and deletions 1 and 3 of (x0, x1, x2, x2, x4)
    # with x1 < x2 both hit (x0, x1, x2, x4) with sign -1.  A one-state
    # machine that closes no loop agrees with every fake merge, so the
    # template checks pass and every word has weight 0.
    m = loops_module._machine(4, CLOSED)
    _use_machine(monkeypatch, _one_state_machine(m))

    def fake_merge_table(two_n, ends, kind):
        table = [None] * (1 << 2 * m.bits)
        if kind == "first":
            for x in range(len(m.first)):
                for y in range(len(m.inner)):
                    table[x << m.bits | y] = x, 0
        elif kind == "last":
            for y in range(len(m.inner)):
                for z in range(len(m.last)):
                    table[y << m.bits | z] = z, 0
        elif kind == "inner":
            for y in range(len(m.inner)):
                for z in range(len(m.inner)):
                    if y != z:
                        table[y << m.bits | z] = min(y, z), 0
        return tuple(table)

    monkeypatch.setattr(loops_module, "_merge_table", fake_merge_table)
    build = lambda dom: build_complex(
        ComplexSpec(4, PointedRing.make(dom, 0), CLOSED, max_degree=4))
    over_z = build(ZZ)
    entries = {p: {(r, c): v for r, c, v in over_z.matrices[p].entries}
               for p in (3, 4)}
    assert 2 in entries[3].values() and -2 in entries[4].values()
    f2, f3 = prime_field(2), prime_field(3)
    over_f2, over_f3 = build(f2), build(f3)
    for p in (3, 4):
        # an entry of size 2 vanishes over F2 and is 2 or 1 over F3
        assert {(r, c) for r, c, _ in over_f2.matrices[p].entries} == {
            rc for rc, n in entries[p].items() if n % 2}
        assert {(r, c): v for r, c, v in over_f3.matrices[p].entries} == {
            rc: f3.from_int(n) for rc, n in entries[p].items()}
    for dom in FIELDS:
        cx = build(dom)
        for p in range(1, 5):
            assert cx.matrices[p] == over_field(over_z.matrices[p], dom), (dom, p)
            assert_in_domain(cx.matrices[p], dom)


def test_assembly_refuses_a_machine_that_disagrees_with_the_merges(monkeypatch):
    # a step that sends one (state, inner id) to the wrong state puts the
    # merges through that id in a class other than their target's
    m = loops_module._machine(4, CLOSED)
    step = [list(row) for row in m.step]
    state, loops = step[m.start[0]][0]
    step[m.start[0]][0] = (1 - state, loops)
    _use_machine(monkeypatch, m._replace(step=step))
    with pytest.raises(GraffitoError, match="merge .* hits no basis word"):
        build_complex(ComplexSpec(4, ZAU, CLOSED, max_degree=3))


def test_field_builds_at_a_zero_map_no_integer_matrix(monkeypatch):
    # a field build at a = 0 writes its values in one pass; no integer
    # matrix is assembled and then read again
    def refuse(*args, **kwargs):
        raise AssertionError("over_field called by a field build at a = 0")

    monkeypatch.setattr(homology_module, "over_field", refuse)
    monkeypatch.setattr(loops_module, "over_field", refuse, raising=False)
    for dom in FIELDS:
        for spec in (FIELD_SPECS[0], FIELD_SPECS[-1]):
            build_complex(ComplexSpec(4, PointedRing.make(dom, 0),
                                      **{**spec, "max_degree": 3}))


def test_basis_keeps_packed_words_in_an_array():
    """A built basis stores its words in one array('Q'); equality, picks
    and iteration read the same as with the words in a tuple (slices:
    test_basis_slices_like_its_strings)."""
    cx = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=3))
    for p in range(4):
        basis = cx.basis[p]
        assert isinstance(basis.keys, array.array) and basis.keys.typecode == "Q"
        as_tuple = Basis(tuple(basis.keys), basis.spell)
        assert basis == as_tuple and as_tuple == basis
        assert tuple(basis) == tuple(as_tuple)
    basis = cx.basis[2]
    positions = [0, 3, 7, len(basis) - 1]
    picked = basis.pick(positions)
    assert picked.keys.typecode == "Q"
    assert picked == Basis(tuple(basis.keys[i] for i in positions), basis.spell)
    assert tuple(picked) == tuple(basis[i] for i in positions)
    # same spelling, other words: unequal in either storage
    other = Basis(tuple(basis.keys[:-1]) + (basis.keys[0],), basis.spell)
    assert basis != other and other != basis
    assert basis != Basis(basis.keys[:-1], basis.spell)


def test_words_wider_than_64_bits_are_refused_before_any_walk():
    # 2n = 8 packs a slot in 11 bits, so six slots (degree 5) take 66; the
    # refusal comes before the walk of 8.2e14 words
    start = time.perf_counter()
    with pytest.raises(GraffitoError, match="66 bits"):
        build_complex(ComplexSpec(8, Z0, CLOSED, max_degree=5))
    assert time.perf_counter() - start < 1.0
    cx = build_complex(ComplexSpec(6, Z0, CLOSED, max_degree=3))
    assert [cx.dim(p) for p in range(4)] == [count_graffiti(p, 6) for p in range(4)]


def test_f2_rows_of_one_length_share_their_values():
    """Over F2 every stored entry is 1, so the rows of one length, and the
    templates, hold one value tuple; over Z each row keeps its own."""
    def value_tuples(cx):
        by_length = {}
        for mat in cx.matrices.values():
            for _, cs, vs in mat.row_data:
                by_length.setdefault(len(cs), []).append(vs)
        return by_length

    for spec in (ComplexSpec(4, PointedRing.make(prime_field(2), 0), CLOSED,
                             max_degree=5, weight=2),
                 ComplexSpec(4, PointedRing.make(prime_field(2), 1),
                             EndSpec(augmented=True), max_degree=3)):
        for n, tuples in value_tuples(build_complex(spec)).items():
            assert all(vs is tuples[0] for vs in tuples), (spec, n)
            assert tuples[0] == (1,) * n
    z = value_tuples(build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=5, weight=2)))
    assert any(len(tuples) > 1 for tuples in z.values())
    for tuples in z.values():
        assert len({id(vs) for vs in tuples}) == len(tuples)


def test_basis_slices_like_its_strings():
    cx = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=2))
    for basis in (cx.basis[1], cx.basis[2], Basis(("x", "y", "z"))):
        strings = tuple(basis)
        for s in (slice(0, 2), slice(None), slice(1, None, 3),
                  slice(None, None, -1), slice(-1, 0, -2), slice(5, 9)):
            assert basis[s] == strings[s]


def _filtered_afterwards(p, ends):
    """The unfiltered walk in degree p, split afterwards by every (weight,
    dividers) filter, None meaning unfiltered; walk order is kept."""
    m = loops_module._machine(4, ends)
    words, counts = loops_module._raw_words(p, 4, ends, None, None)
    picked = {}
    for word, loops in zip(words, counts):
        ids = loops_module._slot_ids(word, p + 1, m.bits)
        divs = sum(m.is_div[i] for i in ids[1:-1])
        for key in ((None, None), (loops, None), (None, divs), (loops, divs)):
            got = picked.setdefault(key, ([], []))
            got[0].append(word)
            got[1].append(loops)
    return picked


@pytest.mark.parametrize("ends", ORACLE_ENDS,
                         ids=lambda e: e.code + ("+aug" if e.augmented else ""))
def test_pruned_walk_equals_filtered_walk(ends):
    # a degree-p word closes at most 2p loops and has at most p - 1 dividers;
    # the filters run one past each
    for p in range(1, 6):
        picked = _filtered_afterwards(p, ends)
        filters = [(w, j) for w in (None, *range(2 * p + 2))
                   for j in (None, *range(p + 1))]
        assert set(picked) <= set(filters)
        for w, j in filters:
            words, counts = picked.get((w, j), ([], []))
            if (w, j) != (None, None):
                assert loops_module._raw_words(p, 4, ends, w, j) == (words, counts)
            assert count_graffiti(p, 4, ends, w, j) == len(words), (p, w, j)


# sha256 of json.dumps of _raw_words in each degree 1..top, in turn, per
# (two_n, ends, weight, dividers, top): the stretch's two-loop block, the
# divider-free rows, and the 2n = 6 weight rows; recorded with the
# depth-first walk that preceded the level walk
WALK_DIGESTS = {
    (4, "cc", 2, None, 6): "eb1cf67c9ed5e35956491557f8253d56be4e9f1e29d3931e5d7233e05beda582",
    (4, "cc", 1, 0, 5): "87e3926869c09c91bb7faa8b334680db33509c6bdb99a92724438c0f4fd85113",
    (4, "cc", 2, 0, 5): "9b0ef8617ca1893b76b536a84e4ae160bc154419629c7ccfd4912a3b613c644b",
    (4, "cc", 3, 0, 5): "11474c7631414f4183848eeb7d2bf009792b2a2032b58ac5dd8728aac7d8037f",
    (4, "cc", 4, 0, 5): "4c4736313b63bd49b37dc9447e3724ada32fd5f12e2d141422bffd7b4fc99904",
    (4, "oo", 1, 0, 5): "a5d879c491ed0355896ab2de7f3af5c98c5cef03a2b994022250c81066bb3017",
    (4, "oc", 1, 0, 5): "6800567beb9de75a36a15e9e048561ba7e9f74a3945d38da2d2239f19ea2b3a1",
    (4, "co", 1, 0, 5): "b0830bc3ff493c86762f557a9808c408c36d58003f7914359389707d66cb49c7",
    (6, "cc", 1, None, 3): "2e1442a3a95bf996ab22f0d349052576604dc47473e03adeca1c3196c81a0b5a",
    (6, "cc", 2, None, 3): "7609c467aec4ba3bf5d9c4780b1c3082cf81ccc981b5fa8f4836dfbd8d99c237",
}


@pytest.mark.parametrize("two_n, code, w, j, top", sorted(WALK_DIGESTS, key=str))
def test_walks_are_pinned(two_n, code, w, j, top):
    digest = hashlib.sha256()
    for p in range(1, top + 1):
        walk = loops_module._raw_words(p, two_n, EndSpec.from_code(code), w, j)
        digest.update(json.dumps(walk).encode())
    assert digest.hexdigest() == WALK_DIGESTS[two_n, code, w, j, top]


def test_walk_memory_is_bounded():
    # the walk keeps one tail table per class, the largest with four inner
    # slots, and writes the blocks under each first slot straight into the
    # output: 360,964 degree-6 words of weight 6 peak at about 58 B each,
    # the returned lists included, where the level walk took about 96
    count_graffiti(6)  # fill the machine first
    tracemalloc.start()
    try:
        words, _ = loops_module._raw_words(6, 4, CLOSED, 6, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words) == 360_964
    assert peak <= 80 * len(words), peak / len(words)


@pytest.mark.parametrize("ring, weight, held, peak", [
    (PointedRing.make(prime_field(2), 0), 2, 36, 40),
    (Z0, 3, 46, 50),
], ids=["f2-w2", "z-w3"])
def test_built_block_bytes_per_stored_entry(ring, weight, held, peak):
    """Bytes a built block holds, and its build peaks at, per stored
    boundary entry: words in array('Q'), columns and row ids from the
    build's shared ints, and over F2 one value tuple per row length.  The
    closed F2 w = 2 block through degree 6 (95,994 entries) holds about 30
    and peaks at about 32; the Z w = 3 block (367,866) about 40 and 43.
    Words as int tuples, a value tuple per row and fresh row ids read
    53 / 59 and 51 / 59."""
    spec = ComplexSpec(4, ring, CLOSED, max_degree=6, weight=weight)
    build_complex(spec)  # a warm build: caches and merge tables filled
    # a full collection empties the tuple free lists the warm build filled;
    # tuples the traced build took from them would go uncounted
    gc.collect()
    tracemalloc.start()
    try:
        cx = build_complex(spec)
        got_held, got_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nnz = sum(mat.nnz() for mat in cx.matrices.values())
    assert got_held <= held * nnz, got_held / nnz
    assert got_peak <= peak * nnz, got_peak / nnz


@pytest.mark.parametrize("two_n, ends, top",
                         [*((4, ends, 5) for ends in ORACLE_ENDS), (6, CLOSED, 3)],
                         ids=["4-cc", "4-cc+aug", "4-oo", "4-oc", "4-co", "6-cc"])
def test_walk_equals_the_level_walk(two_n, ends, top):
    # the class tree walks the slots its spans count tails under, the level
    # walk the slots the transfer tables can still finish; a degree-p word
    # closes at most n * p loops and has at most p - 1 dividers, and the
    # filters run one past each
    for p in range(1, top + 1):
        for w in (None, *range(two_n // 2 * p + 2)):
            for j in (None, *range(p + 1)):
                assert (loops_module._raw_words(p, two_n, ends, w, j)
                        == level_walk(p, two_n, ends, w, j)), (p, w, j)


@pytest.mark.parametrize("ends", ORACLE_ENDS,
                         ids=lambda e: e.code + ("+aug" if e.augmented else ""))
def test_count_graffiti_matches_enumeration(ends):
    # the object layer through degree 3; past it the listing is slow, and
    # the walk it maps one to one is compared above
    for p in range(1, 4):
        for w in (None, *range(2 * p + 2)):
            for j in (None, *range(p + 1)):
                assert (count_graffiti(p, 4, ends, w, j)
                        == len(enumerate_graffiti(p, 4, ends, w, j))), (p, w, j)


def test_listings_refuse_shapes_no_complex_has():
    # a height or end shape that ComplexSpec refuses is refused by the
    # counting and the listing too, in every degree
    for two_n, code in ((6, "oo"), (6, "oc"), (2, "co"), (0, "cc"), (3, "cc"),
                        (-4, "cc")):
        ends = EndSpec.from_code(code)
        with pytest.raises(GraffitoError):
            ComplexSpec(two_n, Z0, ends)
        for p in (0, 2):
            with pytest.raises(GraffitoError):
                count_graffiti(p, two_n, ends)
            with pytest.raises(GraffitoError):
                enumerate_graffiti(p, two_n, code)
    # and so is a negative degree; degree 0 stays valid
    with pytest.raises(GraffitoError):
        count_graffiti(-1)
    with pytest.raises(GraffitoError):
        enumerate_graffiti(-3, 4, "oo")
    assert count_graffiti(0) == len(enumerate_graffiti(0)) == 0
    assert count_graffiti(1, 6) == len(enumerate_graffiti(1, 6)) == 25
    assert count_graffiti(2, 4, "oo") == len(enumerate_graffiti(2, 4, "oo"))


def test_count_graffiti_is_exported():
    # the README, the CLI and verify count through it beside the listing
    from planarloops import count_graffiti as exported
    assert exported is count_graffiti


def test_count_graffiti_degree_7_without_listing():
    # the degree-7 layer holds 19.3M words; counting lists none of them
    assert count_graffiti(7) == 4 * 13 ** 6 == 19_307_236
    assert sum(count_graffiti(7, weight=w) for w in range(15)) == 4 * 13 ** 6
    assert sum(count_graffiti(7, dividers=j) for j in range(7)) == 4 * 13 ** 6


# sha256 of json.dumps(to_json()) followed by json.dumps of the weight labels,
# for the complexes through degree 4; the assembly must reproduce them byte
# for byte
DUMP_DIGESTS = {
    ("cc", "za"): "4f566cd28d9b0671bd9f270fe11e6b4b397952a1256269b78fb24f6a0223353a",
    ("cc", "z"): "c050f8ad9fe703636e20d4735b0a9f154c95f2c25d99e8b89953bafc00afd4e4",
    ("cc", "f2"): "2997909a93d48a58c9c30f151317081babe74ffdee68a5071889918aa66a5326",
    ("augmented", "za"): "771e12b9782a04ddab47850d5e2c30111dae92cbd57ec92c38efc045720eab68",
    ("augmented", "z"): "057fa461b6744a1c444e125943bf2988bd1b7751ae68e14fd57310d365fff7e3",
    ("augmented", "f2"): "1b9fd5391db3adb4af188105bce6431eed6fb2d82b8041fcea9c4be71b356142",
    ("oo", "za"): "15a40cc480df6e6b0aeedbc19917e22c308bfc3d1c4b87f7401a262dc7300f0a",
    ("oo", "z"): "538df45b82b7cc1e34b1339ee3f3f58c2ed74d12899acae9b34ee47c8ca66feb",
    ("oo", "f2"): "a11a788b1f2ada983e7dd6a5b22dc7b39006d68d447ea5cae58a17b4e38aa56b",
    ("oc", "za"): "519405e1c06ffb837d3de226296fff7334e87479f3d75aacb5271e668178d343",
    ("oc", "z"): "bafb4b01bbd6313f3190e41b31f447670f02dc4748322a9b758a5d58433d9d6f",
    ("oc", "f2"): "46637d8c1b0d1c8f7c0a9594dff6e34e71de57a2029663d3085b8c71f528175c",
    ("co", "za"): "8274e1c5f7ce2cd2956d2c6aade3e716a0f1ad9e68c969c5c96f292617115550",
    ("co", "z"): "a6d8b1e5e3d79e4dc2bab5646e34d18a8ffe4c8b1c2754491f328ed0cd677ce3",
    ("co", "f2"): "70d1ef71a161dfc20866e853259f25f6a69e1a4072b9f9d847cff95c7343e6a5",
}


def _dump_digest(cx) -> str:
    text = json.dumps(cx.to_json()) + json.dumps(
        {str(p): list(w) for p, w in cx.weights.items()})
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("ends, ring", sorted(DUMP_DIGESTS))
def test_complex_dumps_are_pinned(ends, ring):
    spec = ComplexSpec(4, parse_ring(ring),
                       EndSpec(augmented=True) if ends == "augmented"
                       else EndSpec.from_code(ends), max_degree=4)
    assert _dump_digest(build_complex(spec)) == DUMP_DIGESTS[ends, ring]


# the same digest over the rings the table above leaves out: Q, whose
# integral values are ints (its dump spells the same bytes as the Z one), and
# the conversion n * a^(loops closed) at a nonzero a
RING_DUMP_DIGESTS = {
    ("q", 0): "c050f8ad9fe703636e20d4735b0a9f154c95f2c25d99e8b89953bafc00afd4e4",
    ("f3", 1): "f0f3cf90a9ea80aa061df04414392eca907d33ffa944f68dfd697d4eaa979b14",
    ("z", 2): "c677e4aa62b2a879938d52adc000aa16d16888e8edd5d114c537563f452ac684",
}


@pytest.mark.parametrize("ring, a", sorted(RING_DUMP_DIGESTS))
def test_ring_dumps_are_pinned(ring, a):
    cx = build_complex(ComplexSpec(4, parse_ring(ring, a), CLOSED, max_degree=4))
    assert _dump_digest(cx) == RING_DUMP_DIGESTS[ring, a]


# sha256 of json.dumps(to_triples()) of each boundary d_1 .. d_top, per
# (two_n, ring, ends, weight, dividers, top), for builds past the dumps
# above: the F2 two-loop block, the closed Z[a] complex in degree 5, the
# divider-free three-loop subquotient rows and 2n = 6; "z2" is Z at a = 2
MATRIX_DIGESTS = {
    (4, "f2", "cc", 2, None, 6): (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "3f8e9a42a1ae2ab1d5f2bd609a35051de7a739b632d0ff86778df4eccd96529b",
        "8206a27e9f1d1a4bd2c7551da3da728778b25ba47af804a3fd002048cd32877f",
        "bf27fc443f8117f14e0a4547e21f215c48a349cc7549b0620f9f1ce077b16967",
        "83ccf0ca909ddb6839b1a033a9a8a4c0820c6403f964c287a8f0644aca0f1ed9",
        "a9a652e097deb2fb21a92a3c070330e2c67ac3ec5525b81394aed25e1af0c231",
    ),
    (4, "za", "cc", None, None, 5): (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "ed83aff6e8359167665a76a144f899bfb579a786755076a4514c4c70115516c2",
        "a10388109481f5f24510710174d854b0ed00b1243464c2f51219e74a84bc8f5f",
        "4482282a14462c13d5457248c0eb8e7d399b0af4a9f50b74ad37aa888993faec",
        "bfea84dbbd1766dc47ea65452595426cc72efff70888c72f9ab137554a9f75cc",
    ),
    (4, "za", "oo", None, None, 4): (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "db5f2c90f41c8c174e978a733d5be09276901300a223987cf8ddca9e0afd290a",
        "6b9f3abccca01f6632192344e9eb2b6bdc265f9be0dd9391ef3de52d300a4a57",
        "8c69f74a03dcbb1b9cd7ab13195742d0ca14819f4ad91868fb08a5b9e059d52e",
    ),
    (4, "za", "augmented", None, None, 4): (
        "428d5a66dd98019a230196e7fe864205f483affad479627a616911ec2d9e798a",
        "ed83aff6e8359167665a76a144f899bfb579a786755076a4514c4c70115516c2",
        "a10388109481f5f24510710174d854b0ed00b1243464c2f51219e74a84bc8f5f",
        "4482282a14462c13d5457248c0eb8e7d399b0af4a9f50b74ad37aa888993faec",
    ),
    (4, "z2", "cc", None, None, 4): (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "cd84269a4a66affe1b8e3fc6fb84f8b2dd31363c5f27bf92571730500af5ff2d",
        "5760835b1fc775840942dfcde867b366b7de57ae9338cc3ccdc6f280468f4d3b",
        "9c254dbeaff4b4e464d3a5cc3c4537bb30efea8bb99defd47cc06bedc69faa84",
    ),
    (4, "z", "cc", 3, 0, 6): (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "17a54b0ae4c23ae4c5513f3ce96510643c916481fea2776da91a81c77c133559",
        "5e6071809532a8dabf17333b820cc261e2d67cc23d244193b977f37c8c1a633f",
        "4ae822184ed2b51cf6ffc38fd2e5ae604f284c29af4451951ceac9fddd3d5d34",
        "4ada22f9ce83bd1daf380a1a879d8caee4939e7e9a1f1187b79c04b4a8671953",
    ),
    (6, "z", "cc", 2, None, 3): (
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
        "6279ff9c496eb7b5809999f26f650dc7a825a086d8bbfd6839ea06ecb2ab3105",
        "8dc9972b829b7a6fc2f91c6fab369fdb871e458fe44da465f8f69143a0ad0da1",
    ),
}


@pytest.mark.parametrize("two_n, ring, ends, w, j, top", sorted(MATRIX_DIGESTS, key=str))
def test_boundary_matrices_are_pinned(two_n, ring, ends, w, j, top):
    spec = ComplexSpec(two_n, parse_ring(*(("z", 2) if ring == "z2" else (ring,))),
                       EndSpec(augmented=True) if ends == "augmented"
                       else EndSpec.from_code(ends), max_degree=top, weight=w,
                       dividers=j, subquotient=j is not None)
    cx = build_complex(spec)
    assert [hashlib.sha256(json.dumps(cx.matrices[p].to_triples()).encode()).hexdigest()
            for p in range(1, top + 1)] == list(MATRIX_DIGESTS[two_n, ring, ends, w, j, top])


# the weight blocks of the closed complex over Z through degree 4, each
# dumped as above, in weight order
BLOCK_DIGESTS = "7425e8724a73d06637d5e5f4d78cbd36e7b96b4928e82ff589e61dcdc067292d"


def test_weight_blocks_are_pinned():
    cx = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=4))
    digests = [f"{w}:{_dump_digest(block)}" for w, block in weight_decompose(cx)]
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == BLOCK_DIGESTS



def test_weight_blocks_draw_each_weight_with_words():
    labels = [cx.description for cx in weight_blocks(ComplexSpec(4, Z0, CLOSED, max_degree=4))]
    assert labels == [f"loops(2n=4, ends=cc, w={w})" for w in range(1, 9)]
    # a spec that fixes a weight is that one block
    (one,) = weight_blocks(ComplexSpec(4, Z0, CLOSED, max_degree=4, weight=3))
    assert one.description == "loops(2n=4, ends=cc, w=3)"


def test_each_block_is_freed_before_the_next_build(monkeypatch):
    """A build raises while a block built before it is still alive."""
    built, build = [], loops_module.build_complex

    def watched(spec):
        assert all(ref() is None for ref in built), "an earlier block is alive"
        cx = build(spec)
        built.append(weakref.ref(cx))
        return cx
    monkeypatch.setattr(loops_module, "build_complex", watched)
    spec = ComplexSpec(4, Z0, CLOSED, max_degree=5)
    table = homology_table(weight_blocks(spec), [1, 2, 3, 4], [ZZ])
    assert [str(h) for h in table[ZZ]] == ["H_1 = Z", "H_2 = Z/2", "H_3 = Z/2",
                                           "H_4 = Z + Z/2"]
    assert len(built) == 10 and all(ref() is None for ref in built)
    # the guard bites: a loop variable holds its block through the next build
    with pytest.raises(AssertionError, match="earlier block is alive"):
        for block in weight_blocks(spec):
            pass


def test_a_block_past_the_bound_is_refused_before_any_build(monkeypatch):
    def refuse(spec):
        raise AssertionError("a block was built")
    monkeypatch.setattr(loops_module, "build_complex", refuse)
    with pytest.raises(GraffitoError, match=(
            r"the weight-\d+ block of 2n = 6 through degree 6 needs about "
            r"[\d.]+ GB by estimate, past the 4 GB one block may take")):
        weight_blocks(ComplexSpec(6, Z0, CLOSED, max_degree=6))
    # the first block past the bound in weight order is named
    with pytest.raises(GraffitoError, match=(
            "the weight-4 block of 2n = 4 through degree 8 needs about 4.9 GB")):
        weight_blocks(ComplexSpec(4, Z0, CLOSED, max_degree=8))
    # the largest requests the bound admits: nothing is built until drawn
    for two_n, top in ((4, 7), (6, 4)):
        weight_blocks(ComplexSpec(two_n, Z0, CLOSED, max_degree=top))


def test_a_whole_build_past_the_bound_is_refused_before_any_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("a walk began")
    # the walk every build and listing runs
    monkeypatch.setattr(loops_module._ClassTree, "words", refuse)
    # at a = 1 no weight filter applies, so only the whole build is estimated
    with pytest.raises(GraffitoError, match=(
            r"the whole complex of 2n = 6 through degree 6 needs about "
            r"[\d.]+ GB by estimate, past the 4 GB one block may take")):
        build_complex(ComplexSpec(6, PointedRing.make(ZZ, 1), max_degree=6))
    # a spec that fixes a weight is its one block
    with pytest.raises(GraffitoError, match=(
            "the weight-4 block of 2n = 4 through degree 8 needs about 4.9 GB")):
        build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=8, weight=4))


def test_chain_codec():
    c = Chain.of(ZAU, PHI_XH) - Chain.of(ZAU, PHI_X).scale(ZAU.a_power(2))
    text = c.encode()
    assert parse_chain(text, ZAU) == c
    assert parse_chain("0", ZAU).is_zero()


def test_hot_path_spells_no_basis_string(monkeypatch):
    """Builds, the Z[a] d^2 check, the weight split and the table of the
    weight blocks read the packed words only: spelling a word raises while
    they run."""
    def refuse(*args):
        raise AssertionError("a basis word was spelled")

    monkeypatch.setattr(loops_module, "_encodings", refuse)
    za = build_complex(ComplexSpec(4, ZAU, CLOSED, max_degree=4))
    assert validate_d_squared(za).ok
    z = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=4))
    blocks = weight_decompose(z)
    table = homology_table(weight_blocks(ComplexSpec(4, Z0, CLOSED, max_degree=4)),
                           [1, 2, 3], [ZZ])
    assert [str(h) for h in table[ZZ]] == ["H_1 = Z", "H_2 = Z/2", "H_3 = Z/2"]
    # the guard bites: reading a basis spells it
    with pytest.raises(AssertionError, match="spelled"):
        z.to_json()
    monkeypatch.undo()
    # spelled on reading, the strings are the canonical encodings
    for w, cx in [(None, za), (None, z), *blocks]:
        for p in range(1, 5):
            want = [g.encode() for g in enumerate_graffiti(p, weight=w)]
            assert cx.to_json()["basis"][str(p)] == want
            assert cx.index_map(p) == {enc: i for i, enc in enumerate(want)}


def test_chain_to_vector_bisects_like_an_index():
    """Bisection on the ascending packed words finds the coordinates that a
    dict over the whole basis found, on the phi images and their products,
    and names a system that is not in the basis."""
    cx = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=4))
    images = phi(Z0).images
    x, xh, r, y = (images[k] for k in ("x", "xh", "r", "y"))
    for c in (x, xh, r, y, x * x, x * xh, x * y, xh * x * x):
        p = c.degree
        index = dict(zip(cx.basis[p], itertools.count()))
        assert chain_to_vector(c, cx, p) == {index[g.encode()]: v
                                             for g, v in c.terms.items()}
    block = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=3, weight=1))
    missing = next(g for g in y.terms if loop_count(g) != 1)
    with pytest.raises(GraffitoError, match=re.escape(
            f"{missing.encode()} is not in the basis of degree 3")):
        chain_to_vector(Chain.of(Z0, missing), block, 3)


def test_chain_to_vector_reads_packed_words():
    closed = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=2))
    c10 = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=2,
                                    weight=1, dividers=0, subquotient=True))
    assert chain_to_vector(Chain.of(Z0, PHI_XH, 3), c10, 1) == {1: 3}
    # a closed degree-1 system outside the one-loop row
    two_loops = enumerate_graffiti(1, weight=2)[0]
    assert chain_to_vector(Chain.of(Z0, two_loops), closed, 1) == {
        list(closed.basis[1]).index(two_loops.encode()): 1}
    with pytest.raises(GraffitoError,
                       match=r"G\(cc\)\[.*\] is not in the basis of degree 1"):
        chain_to_vector(Chain.of(Z0, two_loops), c10, 1)
    # an open system whose slot ids spell a closed word, and a system of
    # another height, are in no closed basis
    opened = enumerate_graffiti(1, ends="oo")[0]
    assert loops_module._packed_word(opened) in closed.basis[1].keys
    for other in (opened, enumerate_graffiti(1, two_n=2)[0]):
        with pytest.raises(GraffitoError, match="not in the basis of degree 1"):
            chain_to_vector(Chain.of(Z0, other), closed, 1)
    # the empty system is word 0 of degree 0 in an augmented complex only
    aug = build_complex(ComplexSpec(4, Z0, EndSpec(augmented=True), max_degree=1))
    assert chain_to_vector(Chain.of(Z0, empty_system()), aug, 0) == {0: 1}
    with pytest.raises(GraffitoError, match="not in the basis of degree 0"):
        chain_to_vector(Chain.of(Z0, empty_system()), closed, 0)
    with pytest.raises(GraffitoError, match="disagrees with requested degree"):
        chain_to_vector(Chain.of(Z0, PHI_R), c10, 1)
