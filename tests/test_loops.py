import functools
import random

import pytest

from planarloops import (Chain, ComplexSpec, EndSpec, GraffitoError,
                         PointedRing, QQ, ZA, ZZ, build_complex,
                         chain_to_vector, close_ends, differential,
                         divider_count, empty_system, enumerate_graffiti, face, from_word, identity_diagram,
                         four_model, involution_lr, involution_tb, loop_count,
                         minimal_model, new_graffito, nondivider_count,
                         parse_chain, parse_diagram, parse_graffito,
                         pivot_sequence, prime_field, product, to_word,
                         truncated_complex, weight_decompose)
from planarloops import loops as loops_module
from planarloops.loops import CLOSED, chain_involution_lr, chain_involution_tb
from planarloops.homology import validate_d_squared

from conftest import (DEG3_EXAMPLE, DEG3_FACES, DIVIDER_EXAMPLE,
                      DIVIDER_RAISING, DIVIDER_RAISING_TARGET, PHI_R, PHI_X,
                      PHI_XH, PIVOT_LETTERS, PRODUCT_EXAMPLE)

Z0 = PointedRing.make(ZZ, 0)
ZAU = PointedRing.make(ZA)
rng = random.Random(0)


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


def test_weight_labels_match_loop_counts():
    cx = build_complex(ComplexSpec(4, Z0, CLOSED, max_degree=3))
    for p in range(1, 4):
        for enc, w in zip(cx.basis[p], cx.weights[p]):
            assert loop_count(parse_graffito(enc)) == w


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
            cols = cx.boundary(p).col_dicts()
            for j, g in enumerate(systems[p]):
                d = differential(Chain.of(ring, g))
                if p == 1 and not ends.augmented:
                    # the reduced complex drops the merge to the empty system
                    assert set(d.terms) <= {empty_system()} and j not in cols
                    continue
                assert chain_to_vector(d, cx, p - 1) == cols.get(j, {}), (ring, g)


def test_assembly_checks_loops_against_weights(monkeypatch):
    loops_module.count_graffiti(1)  # fill the weight machine before the patch
    real = loops_module.compose

    def one_loop_too_many(x, y):
        res, loops = real(x, y)
        return res, loops + 1

    monkeypatch.setattr(loops_module, "compose", one_loop_too_many)
    with pytest.raises(GraffitoError, match="weights differ"):
        build_complex(ComplexSpec(4, ZAU, CLOSED, max_degree=2))


def test_chain_codec():
    c = Chain.of(ZAU, PHI_XH) - Chain.of(ZAU, PHI_X).scale(ZAU.a_power(2))
    text = c.encode()
    assert parse_chain(text, ZAU) == c
    assert parse_chain("0", ZAU).is_zero()
