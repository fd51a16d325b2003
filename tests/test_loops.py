import functools
import hashlib
import importlib
import json
import random
import tracemalloc

import pytest

from planarloops import (Chain, ComplexSpec, EndSpec, GraffitoError,
                         PointedRing, QQ, ZA, ZZ, build_complex,
                         chain_to_vector, close_ends, differential,
                         divider_count, empty_system, enumerate_graffiti, face, from_word, identity_diagram,
                         four_model, involution_lr, involution_tb, loop_count,
                         minimal_model, new_graffito, nondivider_count,
                         parse_chain, parse_diagram, parse_graffito, parse_ring,
                         pivot_sequence, prime_field, product, to_word,
                         truncated_complex, weight_decompose)
from planarloops import loops as loops_module
from planarloops.loops import (CLOSED, chain_involution_lr, chain_involution_tb,
                              count_graffiti)
from planarloops.homology import (Basis, graded_matrix, homology_table,
                                 over_field, validate_d_squared)

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
        for nonunital in (True, False):
            cx = truncated_complex(model, 6, nonunital)
            for p in range(7):
                keys = [(len(w), [index[g] for g in w])
                        for w in (() if b == "1" else tuple(b.split("."))
                                  for b in cx.basis[p])]
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


# every end behaviour, and rings where a is 0, a unit, 2, or the generator
ORACLE_ENDS = (CLOSED, EndSpec(augmented=True),
               *(EndSpec.from_code(code) for code in ("oo", "oc", "co")))
ORACLE_RINGS = (ZAU, Z0, PointedRing.make(ZZ, 2), PointedRing.make(QQ, 0),
                PointedRing.make(prime_field(2), 0),
                PointedRing.make(prime_field(3), 1))


@pytest.mark.parametrize("ends", ORACLE_ENDS,
                         ids=lambda e: e.code + ("+aug" if e.augmented else ""))
def test_build_complex_matches_chain_differential(ends):
    # the Chain/face layer is an independent route to every column
    systems = {p: enumerate_graffiti(p, ends=ends) for p in range(1, 4)}
    for ring in ORACLE_RINGS:
        cx = build_complex(ComplexSpec(4, ring, ends, max_degree=3))
        for p in range(1, 4):
            assert cx.basis[p] == tuple(g.encode() for g in systems[p])
            cols: dict = {}
            for r, cs, vs in cx.boundary(p).row_data:
                for j, v in zip(cs, vs):
                    cols.setdefault(j, {})[r] = v
            for j, g in enumerate(systems[p]):
                d = differential(Chain.of(ring, g))
                if p == 1 and not ends.augmented:
                    # the reduced complex drops the merge to the empty system
                    assert set(d.terms) <= {empty_system()} and j not in cols
                    continue
                assert chain_to_vector(d, cx, p - 1) == cols.get(j, {}), (ring, g)


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
    # word leaves some degree-2 deletion nowhere to go
    real = loops_module._raw_words

    def one_word_short(degree, *args):
        words, counts = real(degree, *args)
        if degree == 1:
            return words[1:], counts[1:]
        return words, counts

    monkeypatch.setattr(loops_module, "_raw_words", one_word_short)
    with pytest.raises(GraffitoError, match="hits no basis word"):
        build_complex(ComplexSpec(4, ZAU, CLOSED, max_degree=2))


def test_assembly_checks_loops_against_weights(monkeypatch):
    loops_module.count_graffiti(1)  # fill the weight machine before the patch
    # empty merge tables, filled by the faulty compose and dropped afterwards
    monkeypatch.setattr(loops_module, "_merge_table",
                        functools.lru_cache(loops_module._merge_table.__wrapped__))
    real = loops_module.compose

    def one_loop_too_many(x, y):
        res, loops = real(x, y)
        return res, loops + 1

    monkeypatch.setattr(loops_module, "compose", one_loop_too_many)
    with pytest.raises(GraffitoError, match="weights differ"):
        build_complex(ComplexSpec(4, ZAU, CLOSED, max_degree=2))


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


def test_field_assembly_adds_same_sign_hits(monkeypatch):
    # no natural complex has an entry of size 2, so fake merge tables make
    # some: a first merge keeps its first slot, a last merge its last slot,
    # and an inner merge of two different ids keeps the smaller one (one id
    # twice is killed).  Then deletions 0 and 2 of (x0, x1, x1, x3) both hit
    # (x0, x1, x3) with sign +1, and deletions 1 and 3 of (x0, x1, x2, x2, x4)
    # with x1 < x2 both hit (x0, x1, x2, x4) with sign -1.  Every word gets
    # weight 0, so the weight check passes.
    m = loops_module._machine(4, CLOSED)
    real_words = loops_module._raw_words

    def unweighted_words(*args):
        words, _ = real_words(*args)
        return words, [0] * len(words)

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

    monkeypatch.setattr(loops_module, "_raw_words", unweighted_words)
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
    # the walk holds the level it grows and the one before it, not every
    # level: 360,964 degree-6 words of weight 6, at most 112 B each at the
    # peak, the returned lists included
    count_graffiti(6)  # fill the transfer tables first
    tracemalloc.start()
    try:
        words, _ = loops_module._raw_words(6, 4, CLOSED, 6, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(words) == 360_964
    assert peak <= 112 * len(words), peak / len(words)


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


# the same digest over the rings the table above leaves out: the Fraction
# zero of Q (its dump spells the same bytes as the Z one), and the
# conversion n * a^(loops closed) at a nonzero a
RING_DUMP_DIGESTS = {
    ("q", 0): "c050f8ad9fe703636e20d4735b0a9f154c95f2c25d99e8b89953bafc00afd4e4",
    ("f3", 1): "f0f3cf90a9ea80aa061df04414392eca907d33ffa944f68dfd697d4eaa979b14",
    ("z", 2): "c677e4aa62b2a879938d52adc000aa16d16888e8edd5d114c537563f452ac684",
}


@pytest.mark.parametrize("ring, a", sorted(RING_DUMP_DIGESTS))
def test_ring_dumps_are_pinned(ring, a):
    cx = build_complex(ComplexSpec(4, parse_ring(ring, a), CLOSED, max_degree=4))
    assert _dump_digest(cx) == RING_DUMP_DIGESTS[ring, a]


# the weight blocks of the closed complex over Z through degree 4, each
# dumped as above, in weight order
BLOCK_DIGESTS = "7425e8724a73d06637d5e5f4d78cbd36e7b96b4928e82ff589e61dcdc067292d"


def test_weight_blocks_are_pinned():
    cx = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=4))
    digests = [f"{w}:{_dump_digest(block)}" for w, block in weight_decompose(cx)]
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest() == BLOCK_DIGESTS


def test_chain_codec():
    c = Chain.of(ZAU, PHI_XH) - Chain.of(ZAU, PHI_X).scale(ZAU.a_power(2))
    text = c.encode()
    assert parse_chain(text, ZAU) == c
    assert parse_chain("0", ZAU).is_zero()


def test_hot_path_spells_no_basis_string(monkeypatch):
    """Builds, the Z[a] d^2 check, the weight split and the homology table
    read the packed words only: spelling a word raises while they run."""
    def refuse(*args):
        raise AssertionError("a basis word was spelled")

    monkeypatch.setattr(loops_module, "_encodings", refuse)
    za = build_complex(ComplexSpec(4, ZAU, CLOSED, max_degree=4))
    assert validate_d_squared(za).ok
    z = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=4))
    blocks = weight_decompose(z)
    table = homology_table(z, [1, 2, 3], [ZZ])
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
