import random

import pytest

from planarloops import (AlgebraError, Chain, NCPoly, PointedRing, QQ, ZA, ZZ,
                         alpha_boundary_check, check_chain_map,
                         check_involution_relations, differential,
                         four_model, loop_count, minimal_model,
                         model_involutions, parse_poly, phi, prime_field, psi,
                         truncated_complex)
from planarloops.freedga import DgaMorphism, sample_words
from planarloops.homology import graded_matrix, validate_d_squared

ZAU = PointedRing.make(ZA)
Z0 = PointedRing.make(ZZ, 0)


def P(text, ring=ZAU):
    return parse_poly(ring, text)


def test_poly_arith():
    x, xh, r, y = (NCPoly.gen(ZAU, n) for n in ("x", "xh", "r", "y"))
    assert x * xh == P("x.xh")
    assert (x + r) * y == P("x.y + r.y")
    assert x.scale(ZAU.domain.from_int(0)).is_zero()
    with pytest.raises(AlgebraError):
        x + NCPoly.gen(Z0, "x")



def test_poly_subtraction_and_repr():
    rng = random.Random(5)
    gens = ["x", "xh", "r", "y"]
    dom = ZAU.domain
    for _ in range(50):
        a, b = (NCPoly(ZAU, {tuple(rng.choice(gens) for _ in range(rng.randint(0, 2))):
                             dom.from_int(rng.randint(-2, 2)) for _ in range(3)})
                for _ in range(2))
        assert a - b == a + (-b)
        assert (a - a).is_zero() and a - a == NCPoly.zero(ZAU)
    p = P("2*x.xh - 2a*r")
    assert repr(p) == "NCPoly(-2a*r + 2*x.xh)" and str(p) == "-2a*r + 2*x.xh"
    assert repr(NCPoly.zero(ZAU)) == "NCPoly(0)"


def test_chains_and_polynomials_do_not_mix():
    from planarloops import Chain, GraffitoError, empty_system
    chain, poly = Chain.of(ZAU, empty_system()), NCPoly.one(ZAU)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(GraffitoError):
            op(chain, poly)
        with pytest.raises(AlgebraError):
            op(poly, chain)
    assert chain != poly and poly != chain
    assert Chain(ZAU) != NCPoly.zero(ZAU) and NCPoly.zero(ZAU) != Chain(ZAU)

def test_poly_text_roundtrip():
    rng = random.Random(7)
    gens = ["x", "xh", "r", "y"]
    dom = ZAU.domain
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            w = tuple(rng.choice(gens) for _ in range(rng.randint(0, 3)))
            terms[w] = dom.add(terms.get(w, dom.zero()),
                               ((rng.randint(0, 2), rng.randint(-3, 3)),))
        p = NCPoly(ZAU, terms)
        assert parse_poly(ZAU, p.encode()) == p
    assert parse_poly(ZAU, "2*x.x̂.r - a*y") == P("2*x.xh.r - a*y")


def test_dga_differential_examples():
    mm = minimal_model(4, ZAU)
    assert mm.differential(P("x1.x3")) == P("a*x3 - 2*x1.x1.x1")
    mm0 = minimal_model(4, Z0)
    assert mm0.differential(parse_poly(Z0, "x1.x3")) == parse_poly(Z0, "-2*x1.x1.x1")
    fm = four_model(ZAU)
    assert fm.d_images["y"] == P("2*x.xh - 2a*r")
    m6 = minimal_model(6, ZAU)
    assert m6.d_images["x5"] == P("3*x1.x3 + 3*x3.x1")
    with pytest.raises(AlgebraError):
        fm.differential(P("x1"))


def test_minimal_model_structure():
    mm = minimal_model(4, ZAU)
    assert [(g.name, g.degree, g.weight) for g in mm.generators] == \
        [("x1", 1, 1), ("x3", 3, 2)]
    assert mm.d_images["x3"] == P("2*x1.x1")
    m2 = minimal_model(2, ZAU)
    assert m2.d_images["x1"] == NCPoly.constant(ZAU, ZAU.a_value)
    m6 = minimal_model(6, ZAU)
    assert m6.differential(m6.d_images["x5"]).is_zero()


def test_four_model_structure():
    fm = four_model(ZAU)
    assert [(g.name, g.degree, g.weight) for g in fm.generators] == \
        [("x", 1, 1), ("xh", 1, 1), ("r", 2, 1), ("y", 3, 2)]
    assert fm.d_images["r"] == P("xh - x")
    assert fm.differential(fm.d_images["y"]).is_zero()
    assert fm.weight_of(fm.d_images["y"]) == 2


def test_d_squared_all_models():
    for n in (2, 4, 6, 8, 10, 12):
        minimal_model(n, ZAU)  # d^2 = 0 checked at construction
    four_model(ZAU)


def test_psi_and_phi_values():
    ps = psi(ZAU)
    assert ps.images["x3"] == P("y + 2*x.r")
    ph = phi(ZAU)
    assert len(ph.images["y"].terms) == 4
    comp = ps.compose_with(ph)
    assert comp.images["x1"] == ph.images["x"]


def test_chain_maps():
    for ring in (ZAU, Z0, PointedRing.make(prime_field(2), 0),
                 PointedRing.make(ZZ, 2)):
        assert check_chain_map(psi(ring)).ok
        assert check_chain_map(phi(ring)).ok
    # d(phi(y)) = 2 phi(x) phi(xh) - 2a phi(r), exactly over the graded ring
    ph = phi(ZAU)
    dom = ZAU.domain
    lhs = differential(ph.images["y"])
    rhs = (ph.images["x"] * ph.images["xh"]).scale(dom.from_int(2)) \
        - ph.images["r"].scale(dom.mul(dom.from_int(2), ZAU.a_value))
    assert lhs == rhs


def test_corrupted_map_is_caught():
    ph = phi(ZAU)
    bad_images = dict(ph.images)
    bad_images["r"] = -bad_images["r"]
    bad = DgaMorphism(ph.source, ph.target, bad_images)
    assert not check_chain_map(bad).ok


def test_morphism_accepts_zero_images():
    # zero is homogeneous of every degree and weight: the int 0 and an empty
    # polynomial or chain are accepted as images, and a word through a zero
    # image maps to zero
    x = NCPoly.gen(Z0, "x")
    src, tgt = minimal_model(4, Z0), four_model(Z0)
    for zero in (0, NCPoly.zero(Z0)):
        f = DgaMorphism(src, tgt, {"x1": x, "x3": zero})
        assert f.images["x3"] == NCPoly.zero(Z0)
        for word in ("x3", "x1.x3", "x3.x1", "x1.x3.x1", "x3.x3"):
            assert f.apply(parse_poly(Z0, word)).is_zero(), word
        assert f.apply(parse_poly(Z0, "x1.x1")) == x * x
    loops = phi(Z0)
    g = DgaMorphism(loops.source, loops.target,
                    {**loops.images, "y": Chain(Z0)})
    assert g.apply(parse_poly(Z0, "x.y")).is_zero()
    assert g.apply(parse_poly(Z0, "x")) == loops.images["x"]
    # where a degree or a weight is needed, zero has none
    with pytest.raises(AlgebraError, match="zero element"):
        tgt.degree_of(NCPoly.zero(Z0))
    with pytest.raises(AlgebraError, match="zero element"):
        tgt.weight_of(NCPoly.zero(Z0))


def test_model_involutions():
    fm = four_model(ZAU)
    sigma_ud, sigma_lr = model_involutions(fm)
    assert sigma_lr(P("x.r.y")) == P("y.r.xh")
    assert sigma_ud(P("x.r.y")) == P("x.r.y")
    rng = random.Random(8)
    gens = ["x", "xh", "r", "y"]
    for _ in range(100):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
        v = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
        pw, pv = NCPoly(ZAU, {w: ZAU.domain.one()}), NCPoly(ZAU, {v: ZAU.domain.one()})
        assert sigma_lr(pw * pv) == sigma_lr(pv) * sigma_lr(pw)
        assert sigma_lr(sigma_lr(pw)) == pw
    for model, samples in ((fm, 200), (minimal_model(6, ZAU), 100)):
        words = sample_words(model, samples, seed=0)
        assert check_involution_relations(words, model.differential,
                                          *model_involutions(model)).ok
    # reversing words without swapping x and xh breaks d sigma_h on r
    rep = check_involution_relations(
        sample_words(fm, 0), fm.differential, sigma_ud,
        lambda p: NCPoly(p.ring, {w[::-1]: v for w, v in p.terms.items()}))
    assert not rep.ok and ("horizontal", "r") in rep.failures


def test_alpha_boundary():
    assert alpha_boundary_check(Z0).ok
    assert alpha_boundary_check(PointedRing.make(prime_field(2), 0)).ok
    assert alpha_boundary_check(PointedRing.make(QQ, 0)).ok
    with pytest.raises(AlgebraError):
        alpha_boundary_check(PointedRing.make(ZZ, 1))
    # dropping one primitive term breaks the identity
    fm = four_model(Z0)
    _, sigma_lr = model_involutions(fm)
    ps = psi(Z0)
    x1, x3 = (NCPoly.gen(Z0, n) for n in ("x1", "x3"))
    alpha = ps.apply(x1 * x3 + x3 * x1)
    bad_primitive = parse_poly(Z0, "r.y - y.r - 2*x.r.r")
    defect = sigma_lr(alpha) - alpha - fm.differential(bad_primitive)
    assert not defect.is_zero()


def test_truncated_complex_bases():
    mm = truncated_complex(minimal_model(4, ZAU), 3)
    assert mm.basis[1] == ("x1",)
    assert mm.basis[2] == ("x1.x1",)
    assert mm.basis[3] == ("x3", "x1.x1.x1")  # length-lexicographic order

    def compositions(p):
        if p == 0:
            return 1
        return sum(compositions(p - k) for k in (1, 3) if k <= p)
    big = truncated_complex(minimal_model(4, ZAU), 7)
    for p in range(1, 8):
        assert big.dim(p) == compositions(p)
    fm = truncated_complex(four_model(ZAU), 3)
    assert fm.dim(2) == 5
    assert set(fm.basis[2]) == {"x.x", "x.xh", "xh.x", "xh.xh", "r"}
    assert validate_d_squared(big).ok


def test_specialize_commutes_with_truncation():
    # graded_matrix renders the Z[a] truncation's integers n as n * a^(Δw)
    # in each ring: the boundary of the truncation built over that ring
    src = truncated_complex(minimal_model(4, ZAU), 5)
    for ring in (Z0, PointedRing.make(ZZ, 2),
                 PointedRing.make(prime_field(5), 3), PointedRing.make(QQ, -2)):
        direct = truncated_complex(minimal_model(4, ring), 5)
        for p in range(1, 6):
            mat = src.matrices[p]
            mapped = graded_matrix(mat.rows, mat.cols, mat.row_data,
                                   src.weights[p - 1], src.weights[p], ring)
            assert mapped.entries == direct.boundary(p).entries


def test_weight_preserved_on_random_words():
    fm = four_model(ZAU)
    rng = random.Random(9)
    gens = ["x", "xh", "r", "y"]
    for _ in range(150):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))
        p = NCPoly(ZAU, {w: ZAU.domain.one()})
        dp = fm.differential(p)
        if not dp.is_zero():
            assert fm.weight_of(dp) == fm.word_weight(w)


def test_phi_image_gradings():
    ph = phi(ZAU)
    for name, (deg, wt) in {"x": (1, 1), "xh": (1, 1), "r": (2, 1), "y": (3, 2)}.items():
        img = ph.images[name]
        assert {g.degree for g in img.terms} == {deg}
        assert {loop_count(g) for g in img.terms} == {wt}


def test_single_loop_one_bar_classes_are_homologous():
    # the two one-bar one-loop systems differ by the boundary of the two-bar
    # bridge between them
    ph = phi(ZAU)
    x, xh, r = ph.images["x"], ph.images["xh"], ph.images["r"]
    assert differential(-r) == x - xh
