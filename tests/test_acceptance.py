"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (visible under pytest -s); stated
runtime bounds are asserted with the wall clock.
"""

import os
import random
import time

import pytest

from planarloops import (Chain, ComplexSpec, EndSpec, PointedRing, QQ, ZA, ZZ,
                         build_complex, build_word_complex,
                         check_chain_map, differential, enumerate_diagrams,
                         enumerate_graffiti, enumerate_letters, four_model,
                         homology, homology_table, minimal_model, phi,
                         prime_field, psi, to_word, truncated_complex,
                         validate_d_squared, weight_blocks, weight_decompose)
from planarloops.diagram import RIGHT_CELL, cell_basis
from planarloops.freedga import alpha_boundary_check
from planarloops.loops import (CLOSED, chain_involution_lr,
                               chain_involution_tb, count_graffiti,
                               pivot_letters)
from planarloops.verify import _generated_by, run_suite

from conftest import ONE_LOOP_LETTERS, PHI_X, PIVOT_LETTERS

ZAU = PointedRing.make(ZA)
Z0 = PointedRing.make(ZZ, 0)
F2 = PointedRing.make(prime_field(2), 0)
F3 = PointedRing.make(prime_field(3), 0)
Q0 = PointedRing.make(QQ, 0)


def report(num, ok, detail, seconds=None):
    stamp = f" [{seconds:.2f}s]" if seconds is not None else ""
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}{stamp}")
    assert ok, detail


def test_criterion_1_structural_counts():
    t0 = time.time()
    ok = len(enumerate_diagrams(4, 4)) == 14
    ok &= len(cell_basis(4, 0, "left-cell")) == 2
    ok &= len(cell_basis(4, 2, RIGHT_CELL)) == 3
    ok &= [len(enumerate_letters(a, b))
           for a, b in [(2, 2), (0, 2), (2, 0), (0, 0)]] == [9, 6, 6, 4]
    one_loop = set()
    for p in range(1, 5):
        for g in enumerate_graffiti(p, weight=1, dividers=0):
            one_loop.update(to_word(g))
    ok &= len(one_loop) == 12 and one_loop == ONE_LOOP_LETTERS
    pivots = set(pivot_letters(4))
    ok &= len(pivots) == 13 and pivots == PIVOT_LETTERS
    for p in range(1, 6):
        ok &= count_graffiti(p) == 4 * 13 ** (p - 1)
    dt = time.time() - t0
    report(1, ok and dt < 1.0,
           "structural counts (14 diagrams, cell bases, 9/6/6/4 letters, "
           "12 one-loop letters, 13 pivots, 4*13^(p-1) bases, p<=5)", dt)


def test_criterion_2_d_squared():
    t0 = time.time()
    big = build_complex(ComplexSpec(4, ZAU, CLOSED, max_degree=5))
    ok = validate_d_squared(big).ok
    aug = build_complex(ComplexSpec(4, ZAU, EndSpec(augmented=True), max_degree=4))
    ok &= validate_d_squared(aug).ok
    for n in (2, 4, 6, 8, 10, 12):
        cx = truncated_complex(minimal_model(n, ZAU), 6)
        ok &= validate_d_squared(cx).ok
    dt = time.time() - t0
    report(2, ok and dt < 60.0,
           "d^2 = 0 exactly: loop complex to degree 5 over the universal ring, "
           "all small models 2n<=12 to degree 6", dt)


def test_criterion_3_chain_maps():
    t0 = time.time()
    ok = check_chain_map(psi(ZAU)).ok
    ok &= check_chain_map(phi(ZAU)).ok
    ph = phi(ZAU)
    dom = ZAU.domain
    lhs = differential(ph.images["y"])
    rhs = (ph.images["x"] * ph.images["xh"]).scale(dom.from_int(2)) \
        - ph.images["r"].scale(dom.mul(dom.from_int(2), ZAU.a_value))
    ok &= lhs == rhs
    dt = time.time() - t0
    report(3, ok and dt < 5.0,
           "both model maps are exact chain maps over the universal ring, "
           "including the degree-3 image identity", dt)


def test_criterion_4_involutions():
    t0 = time.time()
    ph = phi(ZAU)
    x, xh, r, y = (ph.images[k] for k in ("x", "xh", "r", "y"))
    ok = all(chain_involution_tb(c) == c for c in (x, xh, r, y))
    ok &= (chain_involution_lr(x) == xh and chain_involution_lr(xh) == x
           and chain_involution_lr(r) == r and chain_involution_lr(y) == y)
    rng = random.Random(0)
    for p in range(1, 5):
        pool = enumerate_graffiti(p)
        for _ in range(200):
            g = rng.choice(pool)
            c = Chain.of(ZAU, g)
            ok &= differential(chain_involution_tb(c)) == \
                chain_involution_tb(differential(c))
            rhs = chain_involution_lr(differential(c))
            if (p + 1) % 2:
                rhs = -rhs
            ok &= differential(chain_involution_lr(c)) == rhs
            if not ok:
                break
    dt = time.time() - t0
    report(4, ok, "reflection relations on all generator images and "
           "200 sampled systems per degree <= 4", dt)


def test_criterion_5_alpha_boundary():
    t0 = time.time()
    ok = alpha_boundary_check(Z0).ok
    report(5, ok, "the reflected and plain degree-4 classes differ by the "
           "stated exact boundary over (Z, 0)", time.time() - t0)


def test_criterion_6_subquotient_homology():
    t0 = time.time()
    ok = True
    details = []
    for ring, name in ((Z0, "Z"), (F2, "F2")):
        cx1 = build_complex(ComplexSpec(4, ring, CLOSED, max_degree=5,
                                        weight=1, dividers=0, subquotient=True))
        hs = homology(cx1, range(1, 5))
        ok &= [(h.free_rank, h.torsion) for h in hs] == \
            [(1, ()), (0, ()), (0, ()), (0, ())]
        ok &= _generated_by(cx1, Chain.of(ring, PHI_X), 1)
        cx2 = build_complex(ComplexSpec(4, ring, CLOSED, max_degree=5,
                                        weight=2, dividers=0, subquotient=True))
        hs = homology(cx2, range(1, 5))
        ok &= [(h.free_rank, h.torsion) for h in hs] == \
            [(0, ()), (0, ()), (1, ()), (0, ())]
        ok &= _generated_by(cx2, phi(ring).images["y"], 3)
        for w in (3, 4):
            cx = build_complex(ComplexSpec(4, ring, CLOSED, max_degree=5,
                                           weight=w, dividers=0, subquotient=True))
            ok &= all(h.free_rank == 0 and not h.torsion
                      for h in homology(cx, range(1, 5)))
        details.append(name)
    dt = time.time() - t0
    report(6, ok and dt < 120.0,
           "loop-count rows: R in degree 1 (one loop, generated by the one-bar "
           "class), R in degree 3 (two loops, generated by the four-term "
           "cycle), zero for 3 and 4 loops; over " + " and ".join(details), dt)


def test_criterion_7_open_complexes():
    t0 = time.time()
    ok = True
    for code in ("oo", "oc", "co"):
        cx = build_complex(ComplexSpec(4, Z0, EndSpec.from_code(code),
                                       max_degree=5, weight=1, dividers=0,
                                       subquotient=True))
        hs = homology(cx, range(1, 5))
        ok &= [(h.free_rank, h.torsion) for h in hs] == \
            [(1, ()), (0, ()), (0, ()), (0, ())]
    dt = time.time() - t0
    report(7, ok, "open-end one-loop rows have one copy of R in degree 1 only",
           dt)


def test_criterion_8_word_complex():
    t0 = time.time()
    ok = True
    for s in (1, 2, 3, 4):
        hs = homology(build_word_complex(s, 5), range(1, 5))
        ok &= [(h.free_rank, h.torsion) for h in hs] == \
            [(1, ()), (0, ()), (0, ()), (0, ())]
    report(8, ok, "word complexes on 1..4 letters: R in degree 1, zero in "
           "degrees 2..4", time.time() - t0)


EXPECTED_BIG = {
    "Q": {1: (1, []), 2: (0, []), 3: (0, []), 4: (1, [])},
    "F2": {1: (1, []), 2: (1, []), 3: (2, []), 4: (3, [])},
    "F3": {1: (1, []), 2: (0, []), 3: (0, []), 4: (1, [])},
    "Z": {1: (1, []), 2: (0, [2]), 3: (0, [2]), 4: (1, [2])},
}


def test_criterion_9_model_vs_complex():
    # the loop complex is built and reduced once over Z, one weight block at
    # a time, and read over every ring; each model side is its own homology()
    # call over that ring, so Q, F2 and F3 are checked by their own reductions
    t0 = time.time()
    rings = ((Q0, "Q"), (F2, "F2"), (F3, "F3"), (Z0, "Z"))
    blocks = weight_blocks(ComplexSpec(4, Z0, CLOSED, max_degree=5))
    table = homology_table(blocks, range(1, 5), [ring.domain for ring, _ in rings])
    ok = True
    for ring, name in rings:
        got = {h.degree: (h.free_rank, sorted(h.torsion))
               for h in table[ring.domain]}
        model = truncated_complex(minimal_model(4, ring), 5)
        oracle = {h.degree: (h.free_rank, sorted(h.torsion))
                  for h in homology(model, range(1, 5))}
        ok &= got == oracle == EXPECTED_BIG[name]
    dt = time.time() - t0
    report(9, ok, "full loop homology equals the model homology over Q, F2, "
           "F3 and Z in degrees 1..4 (weight-decomposed)", dt)


def test_criterion_10_filtration_suite():
    t0 = time.time()
    ok = run_suite("filtration-properties").ok
    ok &= run_suite("pivot-properties").ok
    report(10, ok, "filtration suite: divider monotonicity, product formulas, "
           "weight additivity, pivot uniqueness and stability, divider-row "
           "dimension identity", time.time() - t0)


stretch = pytest.mark.skipif(not os.environ.get("PLANARLOOPS_STRETCH"),
                             reason="homology stretch goal; "
                                    "set PLANARLOOPS_STRETCH=1 to run")


@stretch
def test_stretch_degree_5():
    # one weight block at a time keeps the degree-6 layer (1.49M basis
    # elements in total) from being held all at once; each block is built
    # and reduced once over Z and read over F2 and Q
    t0 = time.time()
    table = homology_table(weight_blocks(ComplexSpec(4, Z0, CLOSED, max_degree=6)),
                           [5], [F2.domain, QQ])
    ranks = {dom: h.free_rank for dom, (h,) in table.items()}
    assert ranks == {F2.domain: 4, QQ: 1}, ranks
    print(f"STRETCH: PASS - degree-5 ranks (Q: 1, F2: 4) "
          f"[{time.time() - t0:.1f}s]")


# H_5 and H_6 over Z of the closed 2n = 4 weight blocks through degree 7, as
# (free rank, torsion); every other block is 0 in both degrees
H56_BY_WEIGHT = {4: [(1, (2,)), (0, ())], 5: [(0, (2,)), (0, (2, 2, 2))],
                 6: [(0, ()), (0, (2,))]}


@stretch
def test_stretch_degree_6():
    # each block is one call over Z, F2 and Q; the degree-7 layer has 19.3M
    # words, the largest block 4.4M.  Over Z each block's H_5 and H_6 must
    # be those of the same-weight summand of the four-generator model's
    # truncation, and 0 at a weight the model has no words of
    t0 = time.time()
    model = {w: [(h.free_rank, h.torsion) for h in homology(block, [5, 6])]
             for w, block in weight_decompose(truncated_complex(four_model(Z0), 7))}
    doms = [ZZ, F2.domain, QQ]
    per_weight = {}
    for block in weight_blocks(ComplexSpec(4, Z0, CLOSED, max_degree=7)):
        (w,) = {label for labels in block.weights.values() for label in labels}
        per_weight[w] = homology_table([block], [5, 6], doms)
        del block  # the next block is built without this one
        got = [(h.free_rank, h.torsion) for h in per_weight[w][ZZ]]
        assert got == model.get(w, [(0, ())] * 2), (w, got, model.get(w))
        print(f"# stretch weight {w} done [{time.time() - t0:.0f}s]")
    got = {w: [(h.free_rank, h.torsion) for h in t[ZZ]]
           for w, t in per_weight.items() if any(h.free_rank or h.torsion for h in t[ZZ])}
    assert got == H56_BY_WEIGHT, got
    total = {dom: [sum(t[dom][i].free_rank for t in per_weight.values())
                   for i in range(2)] for dom in doms}
    torsion6 = sorted(x for t in per_weight.values() for x in t[ZZ][1].torsion)
    assert torsion6 == [2, 2, 2, 2] and total[ZZ] == [1, 0]
    assert total[F2.domain] == [4, 6] and total[QQ] == [1, 0], total
    print(f"STRETCH: PASS - H_6 = (Z/2)^4, degree-5/6 ranks (Q: 1, 0; F2: 4, 6) "
          f"[{time.time() - t0:.1f}s]")
